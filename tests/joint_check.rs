//! Differential contracts of the joint checking pass: one exploration
//! (or one sampling pass) deciding every property must report, for
//! each property, exactly what a check of that property alone reports.
//!
//! * exhaustive: statuses, per-property `decided_at` states (against
//!   the solo run's `states_visited`), witnesses and minimized
//!   witnesses agree at `workers` ∈ {1, 2, 8} on random CCSL specs —
//!   under `max_states` truncation, under a progress hook that stops
//!   the run mid-way, and with cone-of-influence slicing on;
//! * the joint pass explores once: one `explore` span per distinct
//!   cone, however many properties it decides;
//! * statistical: the per-property `SmcReport`s of one sampling pass
//!   equal the solo reports, in fixed-sample and SPRT mode, at
//!   `workers` ∈ {1, 2, 8}.
//!
//! Runs on the deterministic in-repo `moccml-testkit` harness;
//! failures report a replayable case seed.

use moccml_engine::{ExploreOptions, Program, VisitControl};
use moccml_kernel::{EventId, StepPred};
use moccml_obs::Recorder;
use moccml_smc::{check_statistical, check_statistical_observed, SmcOptions, SmcRun};
use moccml_testkit::{cases, prop_assert_eq, TestRng};
use moccml_verify::{check, minimize_witness, CheckOptions, CheckReport, Prop, PropStatus};

mod common;
use common::{build, random_recipe};

const CASES: usize = 40;
const WORKERS: [usize; 3] = [1, 2, 8];

fn random_pred(rng: &mut TestRng) -> StepPred {
    let e = |rng: &mut TestRng| EventId::from_index(rng.usize_in(0..5));
    match rng.u8_in(0..6) {
        0 => StepPred::fired(e(rng)),
        1 => StepPred::excludes(e(rng), e(rng)),
        2 => StepPred::implies(e(rng), e(rng)),
        3 => StepPred::negate(StepPred::fired(e(rng))),
        4 => StepPred::and(StepPred::fired(e(rng)), StepPred::fired(e(rng))),
        _ => StepPred::or(StepPred::fired(e(rng)), StepPred::fired(e(rng))),
    }
}

fn random_prop(rng: &mut TestRng) -> Prop {
    match rng.u8_in(0..8) {
        0 | 1 => Prop::Never(random_pred(rng)),
        2 => Prop::Always(random_pred(rng)),
        3 => Prop::EventuallyWithin(random_pred(rng), rng.usize_in(0..6)),
        4 => Prop::UntilWithin(random_pred(rng), random_pred(rng), rng.usize_in(1..6)),
        5 => Prop::ReleaseWithin(random_pred(rng), random_pred(rng), rng.usize_in(0..6)),
        _ => Prop::DeadlockFree,
    }
}

/// How a run is cut short, if at all.
#[derive(Debug, Clone, Copy)]
enum Cut {
    None,
    /// The `max_states` bound.
    MaxStates(usize),
    /// A progress hook returning `Stop` once this many states are
    /// interned.
    StopAt(usize),
}

/// One check under `cut`, with a fresh progress hook.
fn run(
    program: &Program,
    props: &[Prop],
    explore: &ExploreOptions,
    slice: bool,
    cut: Cut,
) -> CheckReport {
    let explore = match cut {
        Cut::MaxStates(n) => explore.clone().with_max_states(n),
        Cut::None | Cut::StopAt(_) => explore.clone(),
    };
    let options = CheckOptions::new().with_explore(explore).with_slice(slice);
    match cut {
        Cut::StopAt(limit) => {
            let mut hook = |states: usize, _: usize, _: usize| {
                if states >= limit {
                    VisitControl::Stop
                } else {
                    VisitControl::Continue
                }
            };
            check(program, props, options.with_progress(&mut hook))
        }
        Cut::None | Cut::MaxStates(_) => check(program, props, options),
    }
}

#[test]
fn joint_exhaustive_pass_equals_solo_runs() {
    cases(CASES).run("joint_exhaustive_pass_equals_solo_runs", |rng| {
        let recipes = rng.vec_of(1..5, random_recipe);
        let program = Program::compile(&build(&recipes));
        let props: Vec<Prop> = rng.vec_of(1..6, random_prop);
        let cut = match rng.u8_in(0..3) {
            0 => Cut::None,
            1 => Cut::MaxStates(rng.usize_in(1..60)),
            _ => Cut::StopAt(rng.usize_in(1..60)),
        };
        let slice = rng.bool();
        // bounds keep unbounded precedences finite
        let base = ExploreOptions::default().with_max_states(2_000);
        for workers in WORKERS {
            let explore = base.clone().with_workers(workers);
            let joint = run(&program, &props, &explore, slice, cut);
            prop_assert_eq!(joint.statuses.len(), props.len());
            prop_assert_eq!(joint.decided_at.len(), props.len());
            for (i, prop) in props.iter().enumerate() {
                let solo = run(&program, std::slice::from_ref(prop), &explore, slice, cut);
                let context = format!("{prop} (workers {workers}, {cut:?}, slice {slice})");
                prop_assert_eq!(
                    &joint.statuses[i],
                    &solo.statuses[0],
                    "status of {}",
                    context
                );
                prop_assert_eq!(
                    joint.decided_at[i],
                    solo.states_visited,
                    "states of {}",
                    context
                );
                prop_assert_eq!(solo.decided_at[0], solo.states_visited, "solo {}", context);
                if let (PropStatus::Violated(j), PropStatus::Violated(s)) =
                    (&joint.statuses[i], &solo.statuses[0])
                {
                    prop_assert_eq!(
                        minimize_witness(&program, prop, &j.schedule),
                        minimize_witness(&program, prop, &s.schedule),
                        "minimized witness of {}",
                        context
                    );
                }
            }
        }
        Ok(())
    });
}

#[test]
fn one_exploration_per_distinct_cone() {
    // two independent alternations: `a`-local safety slices to one
    // cone, `x`-local safety to the other, deadlock-freedom never
    // slices
    let compiled = moccml_lang::compile_str(
        "spec two {\n\
           events a, b, x, y;\n\
           constraint ab = alternates(a, b);\n\
           constraint xy = alternates(x, y);\n\
           assert never((a && b));\n\
           assert never(b);\n\
           assert never((x && y));\n\
           assert deadlock-free;\n\
         }",
    )
    .expect("compiles");
    let explores = |slice: bool| {
        let recorder = Recorder::new();
        let explore = ExploreOptions::default().with_recorder(&recorder);
        let options = CheckOptions::new().with_explore(explore).with_slice(slice);
        let report = check(&compiled.program, &compiled.props, options);
        let spans = recorder.snapshot().spans;
        let count = spans.iter().filter(|s| s.name == "explore").count();
        (report, count)
    };
    let (full, full_explores) = explores(false);
    assert_eq!(full_explores, 1, "one pass decides all four properties");
    let (sliced, sliced_explores) = explores(true);
    assert_eq!(
        sliced_explores, 3,
        "the a/b cone, the x/y cone, the full program"
    );
    assert_eq!(full.statuses, sliced.statuses);
    assert!(full.statuses[1].is_violated());
}

fn smc_options(rng: &mut TestRng) -> SmcOptions {
    let options = SmcOptions::default()
        .with_epsilon(0.12)
        .with_delta(0.1)
        .with_max_trace_len(rng.usize_in(1..6))
        .with_seed(rng.any_u64());
    if rng.bool() {
        options.with_prob_threshold([0.1, 0.3, 0.5, 0.8][rng.usize_in(0..4)])
    } else {
        options
    }
}

#[test]
fn joint_sampling_pass_equals_solo_runs() {
    cases(CASES).run("joint_sampling_pass_equals_solo_runs", |rng| {
        let recipes = rng.vec_of(1..5, random_recipe);
        let program = Program::compile(&build(&recipes));
        let props: Vec<Prop> = rng.vec_of(1..5, random_prop);
        let options = smc_options(rng);
        let recorder = Recorder::disabled();
        for workers in WORKERS {
            let options = options.clone().with_workers(workers);
            let joint =
                check_statistical_observed(&program, &props, &options, &SmcRun::new(&recorder));
            prop_assert_eq!(joint.len(), props.len());
            for (prop, report) in props.iter().zip(&joint) {
                let solo = check_statistical(&program, prop, &options);
                prop_assert_eq!(
                    report,
                    &solo,
                    "{} (workers {}, {:?})",
                    prop,
                    workers,
                    options
                );
            }
        }
        Ok(())
    });
}
