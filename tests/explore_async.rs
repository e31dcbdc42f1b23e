//! Property-based determinism of the explorer's parallel expansion:
//! each BFS level is expanded in windows whose chunks any thread may
//! claim, and the calling thread replays the chunks in order, yet
//! `explore` must remain a pure function of the specification — not of
//! the worker count, which thread expanded which state, or the wall
//! clock.
//!
//! Pinned here, for workers ∈ {1, 2, 8} on random CCSL specifications:
//!
//! * **mid-run `VisitControl::Stop`** — stopping at a random level
//!   boundary or a random mid-level progress checkpoint yields a
//!   byte-identical truncated `StateSpace` *and* an identical visitor
//!   callback sequence for every worker count;
//! * **combined truncation** — `max_states` and `max_depth` applied
//!   together (the two bounds interact: whichever bites first must
//!   bite identically);
//! * **verify counterexamples** — `verify::check_props` returns
//!   byte-identical reports (statuses, `Counterexample` schedules,
//!   visited counts) for every worker count, *including truncated
//!   runs* where which violations are even reachable depends on the
//!   exact absorption order;
//! * **graph invariants** — in the one `StateGraph` the replay grows,
//!   transition sources never decrease, each state's discovering edge
//!   is its first incoming transition, deadlocks ascend strictly, and
//!   the graph a visitor sees at every level boundary is a prefix of
//!   the final one, under truncation and mid-run stops alike;
//! * **wide levels** — a progress stop inside a level of several
//!   chunks and windows agrees across worker counts;
//! * **no hang** — a panic in a visitor or in a constraint's `next`
//!   comes back as a panic at every worker count, also when it is
//!   raised on a helper thread.
//!
//! Complements `tests/explore_parallel.rs` (full/`max_states`/
//! `max_depth` space identity), which keeps guarding the same surface.
//!
//! Runs on the deterministic in-repo `moccml-testkit` harness;
//! failures report a replayable case seed.

use moccml_ccsl::Precedence;
use moccml_engine::{
    ExploreOptions, ExploreVisitor, Program, StateGraph, StateSpace, VisitControl,
};
use moccml_kernel::{Constraint, EventId, Specification, StateKey, Step, StepFormula, Universe};
use moccml_testkit::{cases, prop_assert, prop_assert_eq, TestRng};
use moccml_verify::{check_props, Prop};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

mod common;
use common::{build, random_recipe};

const CASES: usize = 56;
const WORKERS: [usize; 3] = [1, 2, 8];

/// One visitor callback, recorded verbatim — the cross-worker identity
/// surface is the *entire* event sequence, not just the final space.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Event {
    Transition(usize, Step, usize, usize),
    Dropped(usize),
    /// Depth, state count and the graph's deadlocks at the level end.
    LevelEnd(usize, usize, Vec<usize>),
    Progress(usize, usize, usize),
}

/// Records every callback and stops — deterministically — after a
/// fixed number of level boundaries and/or progress checkpoints.
struct StoppingRecorder {
    events: Vec<Event>,
    levels_left: Option<usize>,
    checkpoints_left: Option<usize>,
}

impl StoppingRecorder {
    fn new(levels_left: Option<usize>, checkpoints_left: Option<usize>) -> Self {
        StoppingRecorder {
            events: Vec::new(),
            levels_left,
            checkpoints_left,
        }
    }
}

impl ExploreVisitor for StoppingRecorder {
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
        spend(&mut self.levels_left)
    }
    fn on_progress(&mut self, states: usize, transitions: usize, depth: usize) -> VisitControl {
        self.events
            .push(Event::Progress(states, transitions, depth));
        spend(&mut self.checkpoints_left)
    }
}

/// Counts down an optional stop budget: `Stop` once it is spent.
fn spend(budget: &mut Option<usize>) -> VisitControl {
    match budget {
        Some(0) => VisitControl::Stop,
        Some(n) => {
            *n -= 1;
            VisitControl::Continue
        }
        None => VisitControl::Continue,
    }
}

fn assert_identical(serial: &StateSpace, parallel: &StateSpace, ctx: &str) -> Result<(), String> {
    prop_assert_eq!(serial.states(), parallel.states(), "states: {ctx}");
    prop_assert_eq!(
        serial.transitions().collect::<Vec<_>>(),
        parallel.transitions().collect::<Vec<_>>(),
        "transitions: {ctx}"
    );
    prop_assert_eq!(serial.deadlocks(), parallel.deadlocks(), "deadlocks: {ctx}");
    prop_assert_eq!(serial.truncated(), parallel.truncated(), "truncated: {ctx}");
    prop_assert!(serial == parallel, "PartialEq must agree: {ctx}");
    Ok(())
}

/// Stopping at a random level boundary is identical — space *and*
/// callback sequence — for every worker count.
#[test]
fn mid_run_level_stop_agrees_across_workers() {
    cases(CASES).run("mid_run_level_stop_agrees_across_workers", |rng| {
        let recipes = rng.vec_of(2..6, random_recipe);
        let spec = build(&recipes);
        let program = Program::compile(&spec);
        let stop_after = rng.usize_in(0..4);
        let base = ExploreOptions::default().with_max_states(3_000);
        let mut serial_rec = StoppingRecorder::new(Some(stop_after), None);
        let serial = program.explore_with(&base.clone().with_workers(WORKERS[0]), &mut serial_rec);
        for &workers in &WORKERS[1..] {
            let mut rec = StoppingRecorder::new(Some(stop_after), None);
            let space = program.explore_with(&base.clone().with_workers(workers), &mut rec);
            let ctx = format!("workers={workers}, stop_after={stop_after}, recipes {recipes:?}");
            assert_identical(&serial, &space, &ctx)?;
            prop_assert_eq!(&serial_rec.events, &rec.events, "callback sequence: {ctx}");
        }
        Ok(())
    });
}

/// Stopping at a random mid-level progress checkpoint — the
/// cancellation epoch — is identical for every worker count.
#[test]
fn mid_run_progress_stop_agrees_across_workers() {
    cases(CASES).run("mid_run_progress_stop_agrees_across_workers", |rng| {
        // several stateful constraints so most draws exceed one
        // PROGRESS_INTERVAL worth of transitions
        let recipes = rng.vec_of(3..7, random_recipe);
        let spec = build(&recipes);
        let program = Program::compile(&spec);
        let stop_after = rng.usize_in(0..3);
        let base = ExploreOptions::default().with_max_states(5_000);
        let mut serial_rec = StoppingRecorder::new(None, Some(stop_after));
        let serial = program.explore_with(&base.clone().with_workers(WORKERS[0]), &mut serial_rec);
        for &workers in &WORKERS[1..] {
            let mut rec = StoppingRecorder::new(None, Some(stop_after));
            let space = program.explore_with(&base.clone().with_workers(workers), &mut rec);
            let ctx = format!("workers={workers}, stop_after={stop_after}, recipes {recipes:?}");
            assert_identical(&serial, &space, &ctx)?;
            prop_assert_eq!(&serial_rec.events, &rec.events, "callback sequence: {ctx}");
        }
        Ok(())
    });
}

/// `max_states` and `max_depth` applied *together* truncate
/// identically for every worker count (each bound alone is covered by
/// `tests/explore_parallel.rs`; their interaction is pinned here).
#[test]
fn combined_truncation_agrees_across_workers() {
    cases(CASES).run("combined_truncation_agrees_across_workers", |rng| {
        let recipes = rng.vec_of(2..6, random_recipe);
        let spec = build(&recipes);
        let program = Program::compile(&spec);
        let max_states = rng.usize_in(1..60);
        let max_depth = rng.usize_in(0..6);
        let base = ExploreOptions::default()
            .with_max_states(max_states)
            .with_max_depth(max_depth);
        let serial = program.explore(&base.clone().with_workers(WORKERS[0]));
        prop_assert!(serial.state_count() <= max_states);
        for &workers in &WORKERS[1..] {
            let parallel = program.explore(&base.clone().with_workers(workers));
            assert_identical(
                &serial,
                &parallel,
                &format!(
                    "workers={workers}, max_states={max_states}, \
                     max_depth={max_depth}, recipes {recipes:?}"
                ),
            )?;
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

/// `verify::check_props` — statuses, counterexample schedules and
/// visited counts — is byte-identical for every worker count, on
/// *truncated* explorations where which states get interned at the
/// bound depends on the exact absorption order.
#[test]
fn truncated_check_reports_agree_across_workers() {
    cases(CASES).run("truncated_check_reports_agree_across_workers", |rng| {
        let recipes = rng.vec_of(2..6, random_recipe);
        let spec = build(&recipes);
        let program = Arc::new(Program::compile(&spec));
        let props: Vec<Prop> = rng.vec_of(1..4, random_prop);
        let max_states = rng.usize_in(1..120);
        let base = ExploreOptions::default().with_max_states(max_states);
        let serial = check_props(&program, &props, &base.clone().with_workers(WORKERS[0]));
        for &workers in &WORKERS[1..] {
            let parallel = check_props(&program, &props, &base.clone().with_workers(workers));
            let ctx = format!(
                "workers={workers}, max_states={max_states}, props {props:?}, \
                 recipes {recipes:?}"
            );
            prop_assert_eq!(&serial.statuses, &parallel.statuses, "statuses: {ctx}");
            prop_assert_eq!(
                serial.states_visited,
                parallel.states_visited,
                "states_visited: {ctx}"
            );
            prop_assert_eq!(
                serial.transitions_visited,
                parallel.transitions_visited,
                "transitions_visited: {ctx}"
            );
            prop_assert_eq!(serial.completed, parallel.completed, "completed: {ctx}");
            prop_assert!(
                serial == parallel,
                "CheckReport PartialEq must agree: {ctx}"
            );
        }
        // every counterexample that did come back re-validates
        for (i, ce) in serial
            .statuses
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                moccml_verify::PropStatus::Violated(ce) => Some((i, ce)),
                _ => None,
            })
        {
            prop_assert!(
                ce.replays_on(&program),
                "counterexample for prop {i} must replay: recipes {recipes:?}"
            );
        }
        Ok(())
    });
}

/// Keeps a copy of the graph at every level boundary; stops after
/// `levels_left` boundaries or `checkpoints_left` progress checkpoints.
struct GraphSnapshots {
    graphs: Vec<StateGraph>,
    levels_left: Option<usize>,
    checkpoints_left: Option<usize>,
}

impl ExploreVisitor for GraphSnapshots {
    fn on_level_end(&mut self, _depth: usize, graph: &StateGraph) -> VisitControl {
        self.graphs.push(graph.clone());
        spend(&mut self.levels_left)
    }
    fn on_progress(&mut self, _: usize, _: usize, _: usize) -> VisitControl {
        spend(&mut self.checkpoints_left)
    }
}

/// The invariants every consumer of the graph relies on.
fn check_graph(graph: &StateGraph, ctx: &str) -> Result<(), String> {
    let transitions: Vec<_> = graph.transitions().collect();
    prop_assert!(
        transitions.windows(2).all(|w| w[0].0 <= w[1].0),
        "transition sources never decrease: {ctx}"
    );
    prop_assert!(
        graph.deadlocks().windows(2).all(|w| w[0] < w[1]),
        "deadlocks ascend strictly: {ctx}"
    );
    for &d in graph.deadlocks() {
        prop_assert!(graph.is_deadlock(d), "deadlock {d} is queryable: {ctx}");
        prop_assert!(
            graph.outgoing(d).is_empty(),
            "deadlock {d} has no edge: {ctx}"
        );
    }
    // first incoming transition of every state, in absorption order
    let mut first_in: Vec<Option<usize>> = vec![None; graph.state_count()];
    for (e, (_, _, t)) in transitions.iter().enumerate() {
        first_in[*t].get_or_insert(e);
    }
    for (t, e) in first_in.iter().enumerate().skip(1) {
        let e = e.ok_or_else(|| format!("state {t} has no incoming edge: {ctx}"))?;
        let (source, step, _) = transitions[e];
        prop_assert!(
            source < t,
            "state {t} is discovered by an earlier state: {ctx}"
        );
        let mut expected = graph.schedule_to(source);
        expected.push(step.clone());
        prop_assert_eq!(
            graph.schedule_to(t),
            expected,
            "state {t} is discovered by its first incoming edge {e}: {ctx}"
        );
    }
    Ok(())
}

/// The graph invariants hold for every worker count under `max_states`
/// and `max_depth` truncation and under mid-run stops, and every graph
/// a visitor saw at a level boundary is a prefix of the final one.
#[test]
fn state_graph_invariants_hold_under_truncation_and_stops() {
    cases(CASES).run(
        "state_graph_invariants_hold_under_truncation_and_stops",
        |rng| {
            let recipes = rng.vec_of(2..7, random_recipe);
            let spec = build(&recipes);
            let program = Program::compile(&spec);
            let max_states = rng.usize_in(1..1_500);
            let max_depth = if rng.usize_in(0..2) == 0 {
                rng.usize_in(0..8)
            } else {
                usize::MAX
            };
            let (levels_left, checkpoints_left) = match rng.usize_in(0..3) {
                0 => (Some(rng.usize_in(0..5)), None),
                1 => (None, Some(rng.usize_in(0..2))),
                _ => (None, None),
            };
            let base = ExploreOptions::default()
                .with_max_states(max_states)
                .with_max_depth(max_depth);
            for &workers in &WORKERS {
                let mut visitor = GraphSnapshots {
                    graphs: Vec::new(),
                    levels_left,
                    checkpoints_left,
                };
                let space = program.explore_with(&base.clone().with_workers(workers), &mut visitor);
                let ctx = format!(
                    "workers={workers}, max_states={max_states}, max_depth={max_depth}, \
                 stops {levels_left:?}/{checkpoints_left:?}, recipes {recipes:?}"
                );
                let last = space.graph();
                prop_assert_eq!(last.state_count(), space.state_count(), "{ctx}");
                check_graph(last, &ctx)?;
                for (level, seen) in visitor.graphs.iter().enumerate() {
                    let ctx = format!("level {level}, {ctx}");
                    check_graph(seen, &ctx)?;
                    prop_assert!(seen.state_count() <= last.state_count(), "{ctx}");
                    prop_assert_eq!(
                        seen.transitions().collect::<Vec<_>>(),
                        last.transitions()
                            .take(seen.transition_count())
                            .collect::<Vec<_>>(),
                        "transitions are a prefix: {ctx}"
                    );
                    prop_assert_eq!(
                        seen.deadlocks(),
                        &last.deadlocks()[..seen.deadlocks().len()],
                        "deadlocks are a prefix: {ctx}"
                    );
                    for s in 0..seen.state_count() {
                        prop_assert_eq!(seen.schedule_to(s), last.schedule_to(s), "{ctx}");
                        if !seen.outgoing(s).is_empty() {
                            prop_assert_eq!(
                                seen.outgoing(s).collect::<Vec<_>>(),
                                last.outgoing(s).collect::<Vec<_>>(),
                                "{ctx}"
                            );
                        }
                    }
                }
            }
            Ok(())
        },
    );
}

/// A strict precedence that panics when it moves on from the local
/// state `trip`: a constraint bug hit in the middle of an exploration,
/// on whichever thread expands that state first. The program runs
/// `next` once per local state and step and keeps the result, so a
/// panicking `next` runs again on every thread that meets the state.
#[derive(Debug)]
struct Tripwire {
    inner: Precedence,
    trip: StateKey,
    /// Set when it trips on a thread other than [`CALLER`].
    off_caller: Arc<AtomicBool>,
}

impl Constraint for Tripwire {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn constrained_events(&self) -> Vec<EventId> {
        self.inner.constrained_events()
    }
    fn initial(&self) -> StateKey {
        self.inner.initial()
    }
    fn formula(&self, local: &StateKey) -> StepFormula {
        self.inner.formula(local)
    }
    fn next(&self, local: &StateKey, step: &Step) -> StateKey {
        if local == &self.trip && std::thread::current().name() != Some(CALLER) {
            self.off_caller.store(true, Ordering::SeqCst);
        }
        assert_ne!(local, &self.trip, "tripwire state reached");
        self.inner.next(local, step)
    }
}

/// The drift bound of each of [`three_channels`]' precedences.
const BOUND: u64 = 19;

/// Three independent precedences bounded by [`BOUND`]: a 20³-state
/// space whose level `d` holds the 3d² + 3d + 1 states of largest drift
/// `d`. The explorer cuts levels into chunks of 64 states and windows of
/// 1,024, so level 5 is the first of several chunks, and the last,
/// level 19, holds 1,141 states in 18 chunks and two windows. With a
/// tripwire at drift `d`, the first precedence panics when it fires
/// from drift `d`, which is first reached at depth `d`; the returned
/// flag tells whether it tripped off the [`CALLER`] thread.
fn three_channels(tripwire: Option<i64>) -> (Arc<Program>, Arc<AtomicBool>) {
    let mut u = Universe::new();
    let pairs: Vec<_> = (0..3)
        .map(|i| (u.event(&format!("a{i}")), u.event(&format!("b{i}"))))
        .collect();
    let mut spec = Specification::new("channels", u);
    let off_caller = Arc::new(AtomicBool::new(false));
    for (i, (a, b)) in pairs.into_iter().enumerate() {
        let inner = Precedence::strict(&format!("p{i}"), a, b).with_bound(BOUND);
        match tripwire {
            Some(drift) if i == 0 => spec.add_constraint(Box::new(Tripwire {
                inner,
                trip: StateKey::from_values([drift]),
                off_caller: Arc::clone(&off_caller),
            })),
            _ => spec.add_constraint(Box::new(inner)),
        }
    }
    (Program::new(spec), off_caller)
}

/// Panics at the end of the BFS level it holds.
struct PanicAtLevel(usize);

impl ExploreVisitor for PanicAtLevel {
    fn on_level_end(&mut self, depth: usize, _: &StateGraph) -> VisitControl {
        assert_ne!(depth, self.0, "visitor failure");
        VisitControl::Continue
    }
}

/// The name of the thread [`panicked_without_hanging`] runs `explore`
/// on.
const CALLER: &str = "explore-caller";

/// Runs `explore` on its own thread, named [`CALLER`], and returns
/// whether it panicked. A run that has not come back within a minute
/// fails the test rather than wedging the suite.
fn panicked_without_hanging(explore: impl FnOnce() + Send + 'static, ctx: &str) -> bool {
    let (tx, rx) = mpsc::channel();
    std::thread::Builder::new()
        .name(CALLER.into())
        .spawn(move || {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(explore));
            let _ = tx.send(outcome.is_err());
        })
        .expect("the caller thread spawns");
    rx.recv_timeout(Duration::from_secs(60))
        .unwrap_or_else(|e| panic!("exploration did not return ({e}): {ctx}"))
}

/// A panic on any thread ends the exploration as a panic, at every
/// worker count: in a visitor on the replay thread, and in a constraint
/// on whichever thread expands the tripwire state — the replay thread
/// included. With more than one worker, a tripwire first met in a level
/// of several chunks panics on a helper too: the calling thread stops
/// claiming chunks at its own panic, and the helpers meet the state in
/// the chunks left, as level 8 holds it in 81 of its 217 states.
#[test]
fn panics_end_the_run_instead_of_hanging() {
    for workers in WORKERS {
        let options = ExploreOptions::default().with_workers(workers);
        let (program, opts) = (three_channels(None).0, options.clone());
        let visit = move || drop(program.explore_with(&opts, &mut PanicAtLevel(3)));
        let ctx = format!("visitor panic, workers={workers}");
        assert!(panicked_without_hanging(visit, &ctx), "{ctx}");
        let (program, opts) = (three_channels(Some(3)).0, options.clone());
        let expand = move || drop(program.explore(&opts));
        let ctx = format!("constraint panic, workers={workers}");
        assert!(panicked_without_hanging(expand, &ctx), "{ctx}");
        if workers > 1 {
            let (program, off_caller) = three_channels(Some(8));
            let expand = move || drop(program.explore(&options));
            let ctx = format!("constraint panic in a wide level, workers={workers}");
            assert!(panicked_without_hanging(expand, &ctx), "{ctx}");
            assert!(off_caller.load(Ordering::SeqCst), "a helper tripped: {ctx}");
        }
    }
}

/// Records every callback as [`StoppingRecorder`] does, and stops at
/// the first progress checkpoint once it has seen an edge out of state
/// `stop_from` or later.
struct StopPast {
    inner: StoppingRecorder,
    stop_from: usize,
    source: usize,
}

impl ExploreVisitor for StopPast {
    fn on_transition(&mut self, source: usize, step: &Step, target: usize, depth: usize) {
        self.source = source;
        self.inner.on_transition(source, step, target, depth);
    }
    fn on_states_dropped(&mut self, depth: usize) {
        self.inner.on_states_dropped(depth);
    }
    fn on_level_end(&mut self, depth: usize, graph: &StateGraph) -> VisitControl {
        self.inner.on_level_end(depth, graph)
    }
    fn on_progress(&mut self, states: usize, transitions: usize, depth: usize) -> VisitControl {
        self.inner.on_progress(states, transitions, depth);
        if self.source >= self.stop_from {
            VisitControl::Stop
        } else {
            VisitControl::Continue
        }
    }
}

/// A progress stop inside a level that spans several chunks and
/// windows — in the second window of [`three_channels`]' last level —
/// yields the same truncated space and callback sequence at every
/// worker count.
#[test]
fn progress_stop_inside_a_wide_level_agrees_across_workers() {
    let program = three_channels(None).0;
    // the states of depth below BOUND number BOUND³; the last level's
    // second window starts 1,024 states later
    let deeper = usize::try_from(BOUND.pow(3)).expect("fits");
    let stop_from = deeper + 1_024 + 50;
    let run = |workers: usize| {
        let mut visitor = StopPast {
            inner: StoppingRecorder::new(None, None),
            stop_from,
            source: 0,
        };
        let options = ExploreOptions::default().with_workers(workers);
        let space = program.explore_with(&options, &mut visitor);
        (space, visitor.inner.events)
    };
    let (serial, serial_events) = run(1);
    assert!(serial.truncated(), "the stop truncates");
    let last = serial_events.last().expect("callbacks");
    let depth = usize::try_from(BOUND).expect("fits");
    assert!(
        matches!(last, Event::Progress(_, _, d) if *d == depth),
        "stopped at a checkpoint of the last level: {last:?}"
    );
    let absorbed = serial.graph().outgoing(stop_from).len();
    assert!(absorbed > 0, "state {stop_from} was absorbed");
    for workers in [2, 8] {
        let (space, events) = run(workers);
        let ctx = format!("workers={workers}");
        assert_identical(&serial, &space, &ctx).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(serial_events, events, "callback sequence: {ctx}");
    }
}
