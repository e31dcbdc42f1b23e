//! Property-based contracts of cone-of-influence slicing (ISSUE 6):
//! for random two-group (decoupled) specifications and random local
//! properties, `verify::check` with `CheckOptions::with_slice`
//! must be **verdict- and witness-identical** to the unsliced check at
//! every worker count — while never exploring more states, and
//! strictly fewer on the designed decoupled workload.
//!
//! The soundness argument (see `sliceable_events`): eligible
//! properties are stutter-invariant outside their cone, so dropping
//! constraints whose footprints never overlap the cone's closure
//! preserves exactly the projected behaviours the property can see.
//!
//! Runs on the deterministic in-repo `moccml-testkit` harness;
//! failures report a replayable case seed.

mod common;

use common::{name, random_builtin_over};
use moccml::engine::ExploreOptions;
use moccml::kernel::{EventId, StepPred};
use moccml::lang::ast::{ConstraintDecl, Item, SpecAst};
use moccml::lang::{compile, Compiled};
use moccml::verify::{check, is_witness, sliceable_events, CheckOptions, Prop, PropStatus};
use moccml_testkit::{cases, prop_assert, prop_assert_eq, TestRng};

const CASES: usize = 40;
const WORKERS: [usize; 3] = [1, 2, 8];
const GROUP_A: [&str; 3] = ["a0", "a1", "a2"];
const GROUP_B: [&str; 3] = ["b0", "b1", "b2"];

/// A bounded random builtin: `weak_precedes` is the one constructor
/// with an unbounded counter (its solo space is infinite), so it is
/// rerolled away — the verdict comparison needs fully explored spaces.
fn bounded_builtin(rng: &mut TestRng, cname: &str, events: &[&str]) -> ConstraintDecl {
    loop {
        let decl = random_builtin_over(rng, cname, events);
        if decl.ctor.text != "weak_precedes" {
            return decl;
        }
    }
}

/// A random spec whose constraints split into two groups over disjoint
/// event sets — the shape slicing exists for.
fn decoupled_spec(rng: &mut TestRng) -> SpecAst {
    let mut items = vec![Item::Events(
        GROUP_A
            .iter()
            .chain(GROUP_B.iter())
            .map(|e| name(e))
            .collect(),
    )];
    for i in 0..rng.usize_in(1..3) {
        items.push(Item::Constraint(bounded_builtin(
            rng,
            &format!("ga{i}"),
            &GROUP_A,
        )));
    }
    for i in 0..rng.usize_in(1..3) {
        items.push(Item::Constraint(bounded_builtin(
            rng,
            &format!("gb{i}"),
            &GROUP_B,
        )));
    }
    SpecAst {
        name: "decoupled".to_owned(),
        items,
    }
}

/// A random predicate over group-A events only.
fn local_pred(rng: &mut TestRng, compiled: &Compiled, depth: usize) -> StepPred {
    let e = |rng: &mut TestRng| -> EventId {
        compiled
            .universe()
            .lookup(GROUP_A[rng.usize_in(0..GROUP_A.len())])
            .expect("group-A events are declared")
    };
    if depth == 0 {
        return StepPred::fired(e(rng));
    }
    match rng.u8_in(0..5) {
        0 => StepPred::fired(e(rng)),
        1 => StepPred::excludes(e(rng), e(rng)),
        2 => StepPred::and(
            local_pred(rng, compiled, depth - 1),
            local_pred(rng, compiled, depth - 1),
        ),
        3 => StepPred::or(
            local_pred(rng, compiled, depth - 1),
            local_pred(rng, compiled, depth - 1),
        ),
        _ => StepPred::negate(local_pred(rng, compiled, depth - 1)),
    }
}

/// Wraps `pred` in whichever polarity makes the property sliceable:
/// `Never` when the empty step refutes it, `Always` when it satisfies
/// it (exactly the `sliceable_events` eligibility rule).
fn local_prop(pred: StepPred) -> Prop {
    if pred.eval(&moccml::kernel::Step::new()) {
        Prop::Always(pred)
    } else {
        Prop::Never(pred)
    }
}

#[test]
fn sliced_checks_preserve_verdicts_and_witnesses_at_every_worker_count() {
    cases(CASES).run(
        "sliced_checks_preserve_verdicts_and_witnesses_at_every_worker_count",
        |rng| {
            let ast = decoupled_spec(rng);
            let compiled = compile(&ast).map_err(|e| format!("compile fails: {e}"))?;
            let program = &compiled.program;
            let bound = ExploreOptions::default().with_max_states(20_000);
            if program.explore(&bound).truncated() {
                return Ok(()); // truncated spaces can't compare verdicts
            }
            let prop = local_prop(local_pred(rng, &compiled, 2));
            prop_assert!(
                sliceable_events(&prop).is_some(),
                "local_prop must construct a sliceable property: {}",
                prop
            );

            let mut sliced_baseline: Option<(PropStatus, usize)> = None;
            for workers in WORKERS {
                let explore = bound.clone().with_workers(workers);
                let full = check(
                    program,
                    std::slice::from_ref(&prop),
                    CheckOptions::new().with_explore(explore.clone()),
                );
                let sliced = check(
                    program,
                    std::slice::from_ref(&prop),
                    CheckOptions::new().with_explore(explore).with_slice(true),
                );
                prop_assert!(
                    sliced.states_visited <= full.states_visited,
                    "slicing explored more states ({} > {}) for {}",
                    sliced.states_visited,
                    full.states_visited,
                    prop
                );
                match (&full.statuses[0], &sliced.statuses[0]) {
                    (PropStatus::Holds, PropStatus::Holds) => {}
                    (PropStatus::Violated(fce), PropStatus::Violated(sce)) => {
                        prop_assert_eq!(
                            fce.schedule.len(),
                            sce.schedule.len(),
                            "witness lengths differ for {} (workers {})",
                            prop,
                            workers
                        );
                        prop_assert!(
                            sce.replays_on(program),
                            "sliced witness does not replay on the full program"
                        );
                        prop_assert!(
                            is_witness(program, &prop, &sce.schedule),
                            "sliced witness is not a witness on the full program"
                        );
                    }
                    (f, s) => {
                        return Err(format!(
                            "verdicts diverge for {prop} (workers {workers}): full {f:?} \
                             vs sliced {s:?}"
                        ))
                    }
                }
                // the sliced report itself is worker-count invariant
                let summary = (sliced.statuses[0].clone(), sliced.states_visited);
                match &sliced_baseline {
                    None => sliced_baseline = Some(summary),
                    Some(baseline) => prop_assert_eq!(
                        baseline,
                        &summary,
                        "sliced report differs between worker counts"
                    ),
                }
            }
            Ok(())
        },
    );
}

#[test]
fn slicing_is_strict_on_the_designed_decoupled_workload() {
    // two independent alternation pairs: a group-A-local property must
    // not pay for group B's state-space
    let compiled = moccml::lang::compile_str(
        "spec strict {\n\
           events a0, a1, b0, b1;\n\
           constraint ga = alternates(a0, a1);\n\
           constraint gb = alternates(b0, b1);\n\
         }",
    )
    .expect("compiles");
    let program = &compiled.program;
    let a0 = compiled.universe().lookup("a0").expect("declared");
    let a1 = compiled.universe().lookup("a1").expect("declared");
    let prop = Prop::Never(StepPred::and(StepPred::fired(a0), StepPred::fired(a1)));
    for workers in WORKERS {
        let explore = ExploreOptions::default().with_workers(workers);
        let full = check(
            program,
            std::slice::from_ref(&prop),
            CheckOptions::new().with_explore(explore.clone()),
        );
        let sliced = check(
            program,
            std::slice::from_ref(&prop),
            CheckOptions::new().with_explore(explore).with_slice(true),
        );
        assert_eq!(full.statuses[0], PropStatus::Holds);
        assert_eq!(sliced.statuses[0], PropStatus::Holds);
        assert!(
            sliced.states_visited < full.states_visited,
            "workers {workers}: {} !< {}",
            sliced.states_visited,
            full.states_visited
        );
    }
}
