//! Non-perturbation of the observability layer: attaching a live
//! [`Recorder`](moccml_obs::Recorder) to an exploration or a check
//! must change **nothing observable** — the `StateSpace`, the visitor
//! callback sequence, and the `CheckReport` are byte-identical with
//! the recorder off and on, for workers ∈ {1, 2, 8}, on random CCSL
//! specifications, including `max_states`-truncated runs and mid-run
//! `VisitControl::Stop` — and with a second thread polling the
//! recorder's live explorer gauges throughout. The statistical
//! checker's reports are likewise identical with the recorder off and
//! on.
//!
//! This is the contract that makes `--trace` and serve's `metrics`
//! safe to leave on in production: the recorder only counts what the
//! explorer does, it never changes what the explorer does.
//!
//! The suite also pins the trace exports themselves: the Chrome
//! trace-event JSON parses with serve's own strict [`Json`] parser,
//! every JSONL line is an object with a `type` member, and the
//! Prometheus-style exposition passes [`moccml_obs::expose::validate`].
//!
//! Runs on the deterministic in-repo `moccml-testkit` harness;
//! failures report a replayable case seed.

use moccml_engine::{
    ExploreOptions, ExploreVisitor, Program, StateGraph, StateSpace, VisitControl,
};
use moccml_kernel::Step;
use moccml_obs::Recorder;
use moccml_serve::json::Json;
use moccml_smc::{check_statistical_observed, SmcOptions, SmcRun};
use moccml_testkit::{cases, prop_assert, prop_assert_eq, TestRng};
use moccml_verify::{check_props, Prop};
use std::sync::atomic::{AtomicBool, Ordering};

mod common;
use common::{build, random_recipe};

const CASES: usize = 56;
const WORKERS: [usize; 3] = [1, 2, 8];

fn assert_identical(off: &StateSpace, on: &StateSpace, ctx: &str) -> Result<(), String> {
    prop_assert_eq!(off.states(), on.states(), "states: {ctx}");
    prop_assert_eq!(
        off.transitions().collect::<Vec<_>>(),
        on.transitions().collect::<Vec<_>>(),
        "transitions: {ctx}"
    );
    prop_assert_eq!(off.deadlocks(), on.deadlocks(), "deadlocks: {ctx}");
    prop_assert_eq!(off.truncated(), on.truncated(), "truncated: {ctx}");
    prop_assert!(off == on, "PartialEq must agree: {ctx}");
    Ok(())
}

/// Exploration — untruncated and `max_states`-truncated — builds the
/// identical `StateSpace` with the recorder off and on, at every
/// worker count.
#[test]
fn recorder_never_perturbs_the_state_space() {
    cases(CASES).run("recorder_never_perturbs_the_state_space", |rng| {
        let recipes = rng.vec_of(1..5, random_recipe);
        let spec = build(&recipes);
        let program = Program::compile(&spec);
        // half the cases run truncated — where absorption order decides
        // *which* states get interned, right where a perturbing
        // recorder would show
        let max_states = if rng.u8_in(0..2) == 0 {
            rng.usize_in(1..40)
        } else {
            3_000
        };
        for &workers in &WORKERS {
            let base = ExploreOptions::default()
                .with_max_states(max_states)
                .with_workers(workers);
            let off = program.explore(&base);
            let recorder = Recorder::new();
            let on = program.explore(&base.clone().with_recorder(&recorder));
            let ctx = format!("workers={workers}, max_states={max_states}, recipes {recipes:?}");
            assert_identical(&off, &on, &ctx)?;
            let snapshot = recorder.snapshot();
            prop_assert!(
                off.state_count() <= 1 || snapshot.counter_sum("explore_expansions_w") > 0,
                "a multi-state space implies at least one recorded expansion: {ctx}"
            );
        }
        Ok(())
    });
}

/// The explorer's live readings are gauges that another thread polls
/// while the exploration runs. Polling `Recorder::snapshot()` from a
/// second thread throughout every exploration changes nothing: the
/// `StateSpace` is identical to an unrecorded run at every worker
/// count. The polled state counts only grow and never pass the final
/// count, and the final gauges describe the finished space: its states
/// and transitions, nothing pending, and exactly its states interned.
#[test]
fn live_polling_never_perturbs_the_state_space() {
    cases(CASES / 2).run("live_polling_never_perturbs_the_state_space", |rng| {
        let recipes = rng.vec_of(1..5, random_recipe);
        let spec = build(&recipes);
        let program = Program::compile(&spec);
        let max_states = rng.usize_in(1..3_000);
        for &workers in &WORKERS {
            let base = ExploreOptions::default()
                .with_max_states(max_states)
                .with_workers(workers);
            let off = program.explore(&base);
            let recorder = Recorder::new();
            let done = AtomicBool::new(false);
            let (on, polled) = std::thread::scope(|scope| {
                let poller = scope.spawn(|| {
                    let mut polled = Vec::new();
                    while !done.load(Ordering::Acquire) {
                        polled.push(recorder.snapshot().gauge("explore_states").unwrap_or(0));
                        std::thread::yield_now();
                    }
                    polled
                });
                let on = program.explore(&base.clone().with_recorder(&recorder));
                done.store(true, Ordering::Release);
                (on, poller.join().expect("the poller never panics"))
            });
            let ctx = format!("workers={workers}, max_states={max_states}, recipes {recipes:?}");
            assert_identical(&off, &on, &ctx)?;
            let states = on.state_count() as u64;
            prop_assert!(
                polled.windows(2).all(|w| w[0] <= w[1]),
                "polled states only grow: {ctx}"
            );
            prop_assert!(
                polled.iter().all(|&s| s <= states),
                "polled states stay within the final count: {ctx}"
            );
            let gauges = recorder.snapshot();
            let transitions = on.transition_count() as u64;
            prop_assert_eq!(gauges.gauge("explore_states"), Some(states), "{ctx}");
            prop_assert_eq!(
                gauges.gauge("explore_transitions"),
                Some(transitions),
                "{ctx}"
            );
            prop_assert_eq!(gauges.gauge("explore_pending"), Some(0), "{ctx}");
            // the arena holds the canonical states and nothing else,
            // however the bound truncated the run
            prop_assert_eq!(
                gauges.gauge("explore_interner_keys"),
                Some(states),
                "interned == states: {ctx}"
            );
        }
        Ok(())
    });
}

/// One visitor callback, recorded verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Event {
    Transition(usize, Step, usize, usize),
    Dropped(usize),
    /// Depth, state count and the graph's deadlocks at the level end.
    LevelEnd(usize, usize, Vec<usize>),
    Progress(usize, usize, usize),
}

/// Records every callback and stops — deterministically — after a
/// fixed number of level boundaries.
struct StoppingVisitor {
    events: Vec<Event>,
    levels_left: usize,
}

impl ExploreVisitor for StoppingVisitor {
    fn on_transition(&mut self, source: usize, step: &Step, target: usize, depth: usize) {
        self.events
            .push(Event::Transition(source, step.clone(), target, depth));
    }
    fn on_states_dropped(&mut self, depth: usize) {
        self.events.push(Event::Dropped(depth));
    }
    fn on_level_end(&mut self, depth: usize, graph: &StateGraph) -> VisitControl {
        self.events.push(Event::LevelEnd(
            depth,
            graph.state_count(),
            graph.deadlocks().to_vec(),
        ));
        if self.levels_left == 0 {
            VisitControl::Stop
        } else {
            self.levels_left -= 1;
            VisitControl::Continue
        }
    }
    fn on_progress(&mut self, states: usize, transitions: usize, depth: usize) -> VisitControl {
        self.events
            .push(Event::Progress(states, transitions, depth));
        VisitControl::Continue
    }
}

/// Mid-run `VisitControl::Stop` with a live recorder attached yields
/// the identical truncated space *and* the identical callback sequence
/// as the recorder-free run, at every worker count.
#[test]
fn recorder_never_perturbs_callbacks_or_mid_run_stop() {
    cases(CASES).run("recorder_never_perturbs_callbacks_or_mid_run_stop", |rng| {
        let recipes = rng.vec_of(2..6, random_recipe);
        let spec = build(&recipes);
        let program = Program::compile(&spec);
        let stop_after = rng.usize_in(0..4);
        for &workers in &WORKERS {
            let base = ExploreOptions::default()
                .with_max_states(3_000)
                .with_workers(workers);
            let mut off_visitor = StoppingVisitor {
                events: Vec::new(),
                levels_left: stop_after,
            };
            let off = program.explore_with(&base, &mut off_visitor);
            let recorder = Recorder::new();
            let mut on_visitor = StoppingVisitor {
                events: Vec::new(),
                levels_left: stop_after,
            };
            let on = program.explore_with(&base.clone().with_recorder(&recorder), &mut on_visitor);
            let ctx = format!("workers={workers}, stop_after={stop_after}, recipes {recipes:?}");
            assert_identical(&off, &on, &ctx)?;
            prop_assert_eq!(
                &off_visitor.events,
                &on_visitor.events,
                "callback sequence: {ctx}"
            );
        }
        Ok(())
    });
}

fn random_pred(rng: &mut TestRng) -> moccml_kernel::StepPred {
    use moccml_kernel::{EventId, StepPred};
    let e = |rng: &mut TestRng| EventId::from_index(rng.usize_in(0..5));
    match rng.u8_in(0..4) {
        0 => StepPred::fired(e(rng)),
        1 => StepPred::excludes(e(rng), e(rng)),
        2 => StepPred::implies(e(rng), e(rng)),
        _ => StepPred::negate(StepPred::fired(e(rng))),
    }
}

fn random_prop(rng: &mut TestRng) -> Prop {
    match rng.u8_in(0..5) {
        0 | 1 => Prop::Never(random_pred(rng)),
        2 => Prop::Always(random_pred(rng)),
        3 => Prop::EventuallyWithin(random_pred(rng), rng.usize_in(1..5)),
        _ => Prop::DeadlockFree,
    }
}

/// `check_props` — statuses, counterexample schedules and visited
/// counts — is byte-identical with the recorder off and on, at every
/// worker count, on truncated explorations.
#[test]
fn recorder_never_perturbs_check_reports() {
    cases(CASES).run("recorder_never_perturbs_check_reports", |rng| {
        let recipes = rng.vec_of(2..6, random_recipe);
        let spec = build(&recipes);
        let program = Program::compile(&spec);
        let props: Vec<Prop> = rng.vec_of(1..4, random_prop);
        let max_states = rng.usize_in(5..120);
        for &workers in &WORKERS {
            let base = ExploreOptions::default()
                .with_max_states(max_states)
                .with_workers(workers);
            let off = check_props(&program, &props, &base);
            let recorder = Recorder::new();
            let on = check_props(&program, &props, &base.clone().with_recorder(&recorder));
            prop_assert_eq!(
                &off,
                &on,
                "check report: workers={workers}, max_states={max_states}, \
                 props {props:?}, recipes {recipes:?}"
            );
        }
        Ok(())
    });
}

/// A statistical check's reports — estimates, intervals, witnesses —
/// are identical with the recorder off and on at every worker count,
/// in fixed-sample and sequential mode, and the recorder tallies the
/// sampled steps in `smc_steps`.
#[test]
fn recorder_never_perturbs_statistical_reports() {
    cases(CASES).run("recorder_never_perturbs_statistical_reports", |rng| {
        let recipes = rng.vec_of(1..5, random_recipe);
        let program = Program::compile(&build(&recipes));
        let props: Vec<Prop> = rng.vec_of(1..4, random_prop);
        let mut options = SmcOptions::default()
            .with_epsilon(0.15)
            .with_max_trace_len(rng.usize_in(1..8))
            .with_seed(rng.any_u64());
        if rng.bool() {
            options = options.with_prob_threshold(0.4);
        }
        for &workers in &WORKERS {
            let options = options.clone().with_workers(workers);
            let disabled = Recorder::disabled();
            let off =
                check_statistical_observed(&program, &props, &options, &SmcRun::new(&disabled));
            let recorder = Recorder::new();
            let on =
                check_statistical_observed(&program, &props, &options, &SmcRun::new(&recorder));
            prop_assert_eq!(
                &off,
                &on,
                "workers={workers}, props {props:?}, recipes {recipes:?}"
            );
            let snap = recorder.snapshot();
            let traces = snap.counter("smc_traces").unwrap_or(0);
            let steps = snap.counter("smc_steps").unwrap_or(0);
            prop_assert!(
                traces >= on[0].traces as u64,
                "every consumed trace is counted"
            );
            prop_assert!(
                steps <= traces * options.max_trace_len as u64,
                "steps {steps}"
            );
        }
        Ok(())
    });
}

/// The trace exports of a recorded random run always round-trip
/// through serve's strict JSON parser, and the exposition validates.
#[test]
fn trace_exports_parse_and_exposition_validates() {
    cases(CASES).run("trace_exports_parse_and_exposition_validates", |rng| {
        let recipes = rng.vec_of(1..5, random_recipe);
        let spec = build(&recipes);
        let program = Program::compile(&spec);
        let recorder = Recorder::new();
        {
            let _span = recorder.span("explore");
            let _ = program.explore(
                &ExploreOptions::default()
                    .with_max_states(500)
                    .with_workers(rng.usize_in(1..5))
                    .with_recorder(&recorder),
            );
        }
        let snapshot = recorder.snapshot();

        // Chrome trace-event JSON: strict-parses, and the span names
        // survive into traceEvents
        let catapult = moccml_obs::trace::catapult_json(&snapshot, "moccml");
        let parsed = Json::parse(&catapult).map_err(|e| format!("catapult: {e:?}"))?;
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .ok_or("traceEvents array")?;
        prop_assert!(!events.is_empty(), "at least the explore span");
        let has_explore = events
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("explore"));
        prop_assert!(has_explore, "the explore span is exported");

        // JSONL: every line is an object with a `type` member
        for line in moccml_obs::trace::jsonl(&snapshot).lines() {
            let row = Json::parse(line).map_err(|e| format!("jsonl: {e:?}"))?;
            prop_assert!(
                row.get("type").and_then(Json::as_str).is_some(),
                "jsonl rows carry a type"
            );
        }

        // exposition: the counters render to a valid Prometheus-style
        // text page
        let mut exposition = moccml_obs::expose::Exposition::new();
        for (name, value) in &snapshot.counters {
            exposition.counter(&format!("test_{name}_total"), "test counter", &[], *value);
        }
        let text = exposition.finish();
        moccml_obs::expose::validate(&text).map_err(|e| format!("exposition: {e}"))?;
        Ok(())
    });
}
