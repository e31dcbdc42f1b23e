//! On-the-fly property checking over the exploration engine.
//!
//! [`check`] compiles every [`Prop`] into an observer monitor and runs
//! them all *inside* one exploration, through the explorer's
//! canonicalization pass and the
//! [`ExploreVisitor`](moccml_engine::ExploreVisitor) hook: every
//! absorbed transition, deadlock and level boundary is fed to the
//! monitors in canonical order. Each monitor is decided at the first
//! level boundary that settles it, and the BFS ends as soon as every
//! monitor is decided instead of materialising the full state-space —
//! **deterministically for every worker count**, because the visitor
//! sequence itself is worker-count-independent.
//!
//! The monitors keep no copy of the graph: at each level boundary they
//! read the explorer's own [`StateGraph`] (transitions, outgoing
//! edges, deadlocks), and afterwards the returned space's.
//!
//! Violations come back as [`Counterexample`]s: a shortest replayable
//! [`Schedule`] from the initial state, read off the graph's
//! discovering edges ([`StateGraph::schedule_to`]) and re-validated
//! through a fresh [`Cursor`](moccml_engine::Cursor) before it is
//! returned.

use crate::conformance::{conformance, Verdict};
use crate::prop::Prop;
use crate::temporal::{StepClass, TemporalSpec};
use moccml_engine::{ExploreOptions, ExploreVisitor, Program, StateGraph, VisitControl};
use moccml_kernel::{KernelError, Schedule, Step, StepPred};
use std::collections::{BTreeSet, HashMap};

/// A violation witness: a shortest acceptable schedule from the
/// initial state whose execution exhibits the violation.
///
/// For a safety violation the *last* step of the schedule is the
/// offending one; for deadlock-freedom the schedule ends in the
/// deadlock state; for bounded liveness the schedule is a maximal (or
/// length-`k`) predicate-free prefix. In every case the schedule
/// replays cleanly through a fresh cursor — [`check`] asserts this
/// before returning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// The replayable schedule from the initial state.
    pub schedule: Schedule,
    /// Index (in the explored [`StateSpace`](moccml_engine::StateSpace))
    /// of the state the schedule reaches.
    pub state: usize,
}

impl Counterexample {
    /// Whether the schedule replays step by step through a fresh cursor
    /// of `program` — the re-validation contract of every
    /// counterexample this crate returns.
    #[must_use]
    pub fn replays_on(&self, program: &Program) -> bool {
        conformance(program, &self.schedule) == Verdict::Conforms
    }
}

/// The verdict for one property after a check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropStatus {
    /// The property holds on the fully explored state-space.
    Holds,
    /// The property is violated; the counterexample is a shortest
    /// witness.
    Violated(Counterexample),
    /// The exploration ended before this property could be decided: a
    /// bound truncated the space, or the progress hook stopped the
    /// run. Other properties' verdicts never end a run early.
    Undetermined,
}

impl PropStatus {
    /// Whether this status carries a violation.
    #[must_use]
    pub fn is_violated(&self) -> bool {
        matches!(self, PropStatus::Violated(_))
    }
}

/// The result of [`check`]: one [`PropStatus`] per property, in input
/// order, the states it took to decide each, plus the exploration
/// effort of the whole check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckReport {
    /// Per-property statuses, parallel to the `props` slice.
    pub statuses: Vec<PropStatus>,
    /// Per-property states interned where its monitor was decided (or
    /// where its exploration ended): the `states_visited` of a check of
    /// that property alone.
    pub decided_at: Vec<usize>,
    /// States interned before the check ended, summed over its
    /// explorations (one per distinct sliced cone) — strictly fewer
    /// than a full exploration when every property was decided early.
    pub states_visited: usize,
    /// Transitions absorbed before the check ended, summed likewise.
    pub transitions_visited: usize,
    /// Whether every exploration covered its whole reachable space (no
    /// bound hit, no early stop with frontier remaining).
    pub completed: bool,
    /// Why an exploration could not go on, if one could not: a reached
    /// state admits more steps than a `usize` counts (see
    /// [`StateSpace::error`](moccml_engine::StateSpace::error)). The
    /// properties its absorbed prefix did not decide are then
    /// [`PropStatus::Undetermined`].
    pub error: Option<KernelError>,
}

impl CheckReport {
    /// The first violated property, as `(index, counterexample)`.
    #[must_use]
    pub fn first_violation(&self) -> Option<(usize, &Counterexample)> {
        self.statuses.iter().enumerate().find_map(|(i, s)| match s {
            PropStatus::Violated(ce) => Some((i, ce)),
            _ => None,
        })
    }

    /// Whether any property was violated.
    #[must_use]
    pub fn any_violated(&self) -> bool {
        self.statuses.iter().any(PropStatus::is_violated)
    }
}

/// A streaming progress callback for [`CheckOptions::with_progress`]:
/// called with `(states, transitions, depth)` at every explorer
/// checkpoint — once per
/// [`PROGRESS_INTERVAL`](moccml_engine::PROGRESS_INTERVAL) absorbed
/// transitions and once per level boundary that leaves a property
/// undecided. Returning [`VisitControl::Stop`] aborts the check
/// cooperatively: the report comes back with
/// [`PropStatus::Undetermined`] for every property the absorbed prefix
/// had not already decided.
pub type ProgressFn<'a> = dyn FnMut(usize, usize, usize) -> VisitControl + 'a;

/// Options for [`check`]: the exploration bounds (with their
/// recorder), the opt-in cone-of-influence slice and the optional
/// progress hook.
#[derive(Default)]
pub struct CheckOptions<'a> {
    explore: ExploreOptions,
    slice: bool,
    progress: Option<&'a mut ProgressFn<'a>>,
}

impl<'a> CheckOptions<'a> {
    /// Default exploration bounds, slicing off, no progress hook.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Uses `explore` as the exploration bounds (and recorder).
    #[must_use]
    pub fn with_explore(mut self, explore: ExploreOptions) -> Self {
        self.explore = explore;
        self
    }

    /// Enables (or disables) cone-of-influence slicing. When enabled,
    /// every eligible property (see [`sliceable_events`]) is checked
    /// on the constraints transitively sharing events with it —
    /// strictly fewer states whenever the spec has independent parts.
    #[must_use]
    pub fn with_slice(mut self, slice: bool) -> Self {
        self.slice = slice;
        self
    }

    /// Streams progress through `progress`, for progress events,
    /// timeouts and cooperative cancellation. Its
    /// [`VisitControl::Stop`] ends the explorer like the monitors' own
    /// early stop; violations recorded before it are still returned.
    #[must_use]
    pub fn with_progress(mut self, progress: &'a mut ProgressFn<'a>) -> Self {
        self.progress = Some(progress);
        self
    }
}

/// Checks several properties on the fly — [`check`] with plain
/// exploration bounds: no slicing, no progress hook.
///
/// # Panics
///
/// Panics if a reconstructed counterexample fails to replay through a
/// fresh cursor — see [`check`].
///
/// # Example
///
/// ```
/// use moccml_ccsl::Alternation;
/// use moccml_engine::{ExploreOptions, Program};
/// use moccml_kernel::{Specification, StepPred, Universe};
/// use moccml_verify::{check_props, Prop, PropStatus};
///
/// let mut u = Universe::new();
/// let (a, b) = (u.event("a"), u.event("b"));
/// let mut spec = Specification::new("alt", u);
/// spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
/// let program = Program::new(spec);
///
/// let props = [
///     Prop::DeadlockFree,                                  // holds
///     Prop::Never(StepPred::fired(b)),                     // violated at depth 2
/// ];
/// let report = check_props(&program, &props, &ExploreOptions::default());
/// assert_eq!(report.statuses[0], PropStatus::Holds);
/// let (_, ce) = report.first_violation().expect("b eventually fires");
/// assert_eq!(ce.schedule.len(), 2); // a then b — the shortest witness
/// // one exploration of the 2-state space decided both
/// assert_eq!(report.decided_at, [2, 2]);
/// ```
#[must_use]
pub fn check_props(program: &Program, props: &[Prop], options: &ExploreOptions) -> CheckReport {
    let options = CheckOptions::new().with_explore(options.clone());
    check(program, props, options)
}

/// Checks every property in `props` in one exploration pass, on the
/// fly.
///
/// The explorer runs under [`CheckOptions::with_explore`] (bounds,
/// solver, recorder, `workers` — the result is identical for every
/// worker count) with every monitor attached. Each property is decided at the first level
/// boundary that settles it, and the run ends once every property is
/// decided, or when a bound or the progress hook ends it. A property's
/// status, [`decided_at`](CheckReport::decided_at) and witness are
/// exactly those of a check of that property alone. Properties left
/// undecided resolve to [`PropStatus::Holds`] on a completed space and
/// to [`PropStatus::Undetermined`] otherwise.
///
/// With [`CheckOptions::with_slice`], each eligible property (see
/// [`sliceable_events`]) whose cone drops a constraint is checked on
/// [`Program::slice`], one pass per distinct cone. The verdict is the
/// same; a witness keeps its shortest length and replays on the
/// **full** program (re-asserted), but is canonical for the slice, so
/// it need not be byte-identical to the unsliced one.
///
/// # Panics
///
/// Panics if a reconstructed counterexample fails to replay through a
/// fresh cursor — including, for sliced passes, on the full program.
/// That would be an engine determinism bug, not a user error.
#[must_use]
pub fn check(program: &Program, props: &[Prop], mut options: CheckOptions<'_>) -> CheckReport {
    // one pass per distinct cone; `None` is the pass over the full
    // program, shared by every property that does not slice
    let mut passes: Vec<(Option<Vec<usize>>, Vec<usize>)> = Vec::new();
    let constraints = program.specification().constraint_count();
    for (i, prop) in props.iter().enumerate() {
        let cone = sliceable_events(prop)
            .filter(|_| options.slice)
            .map(|seeds| program.cone_of_influence(&seeds))
            .filter(|cone| cone.len() < constraints);
        match passes.iter_mut().find(|(c, _)| *c == cone) {
            Some((_, members)) => members.push(i),
            None => passes.push((cone, vec![i])),
        }
    }
    let mut report = CheckReport {
        statuses: vec![PropStatus::Undetermined; props.len()],
        decided_at: vec![0; props.len()],
        states_visited: 0,
        transitions_visited: 0,
        completed: true,
        error: None,
    };
    for (cone, members) in passes {
        let pass_props: Vec<&Prop> = members.iter().map(|&i| &props[i]).collect();
        let sliced = cone.map(|_| {
            let _span = options.explore.recorder.span("slice");
            program.slice(&sliceable_events(pass_props[0]).expect("sliced props are eligible"))
        });
        let explored = sliced.as_deref().unwrap_or(program);
        let progress = options.progress.as_deref_mut();
        let pass = run_pass(explored, &pass_props, &options.explore, progress);
        let decided = members.into_iter().zip(pass.statuses).zip(pass.decided_at);
        for ((i, status), decided_at) in decided {
            // a sliced witness replays on the full program too
            if let PropStatus::Violated(ce) = &status {
                assert!(
                    ce.replays_on(program),
                    "counterexample for `{}` does not replay: {}",
                    props[i],
                    ce.schedule
                );
            }
            report.statuses[i] = status;
            report.decided_at[i] = decided_at;
        }
        report.states_visited += pass.states_visited;
        report.transitions_visited += pass.transitions_visited;
        report.completed &= pass.completed;
        report.error = report.error.or(pass.error);
    }
    report
}

/// One exploration of `program` with a monitor per property.
fn run_pass(
    program: &Program,
    props: &[&Prop],
    options: &ExploreOptions,
    progress: Option<&mut ProgressFn<'_>>,
) -> CheckReport {
    // phase span: the explorer's own `explore` span nests inside it
    let _span = options.recorder.span("check");
    let mut visitor = CheckVisitor {
        monitors: props.iter().map(|p| Monitor::new(p)).collect(),
        decided_at: vec![None; props.len()],
        dropped: false,
        progress,
    };
    let space = program.explore_with(options, &mut visitor);
    let completed = !space.truncated();
    let dropped = visitor.dropped;
    CheckReport {
        statuses: visitor
            .monitors
            .iter_mut()
            .map(|m| m.resolve(completed, space.graph(), dropped))
            .collect(),
        decided_at: visitor
            .decided_at
            .iter()
            .map(|d| d.unwrap_or(space.state_count()))
            .collect(),
        states_visited: space.state_count(),
        transitions_visited: space.transition_count(),
        completed,
        error: space.error().cloned(),
    }
}

/// The seed events for cone-of-influence slicing of `prop`, or `None`
/// when slicing is not verdict-preserving for it.
///
/// Slicing is sound exactly for the *stutter-invariant safety*
/// properties: constraints outside the cone only ever add steps that
/// are invisible to the predicate (they fire no cone event), so the
/// predicate must not change verdict on such steps:
///
/// * `Always(p)` with `p(∅) = true` — a step over foreign events
///   satisfies `p`, so dropping or adding foreign behaviour cannot
///   introduce or mask a violation;
/// * `Never(p)` with `p(∅) = false` — symmetric;
/// * everything else (the bounded-temporal properties
///   `EventuallyWithin`/`UntilWithin`/`ReleaseWithin`, whose bounds
///   count foreign steps too; `DeadlockFree`, where a deadlock is a
///   *joint* wedge of cone and remainder; polarity-mismatched
///   `Always`/`Never`) must be checked on the full program.
#[must_use]
pub fn sliceable_events(prop: &Prop) -> Option<Vec<moccml_kernel::EventId>> {
    let empty = Step::new();
    let eligible = match prop {
        Prop::Always(p) => p.eval(&empty),
        Prop::Never(p) => !p.eval(&empty),
        Prop::EventuallyWithin(..)
        | Prop::UntilWithin(..)
        | Prop::ReleaseWithin(..)
        | Prop::DeadlockFree => false,
    };
    match prop {
        Prop::Always(p) | Prop::Never(p) if eligible => Some(p.events().iter().collect()),
        _ => None,
    }
}

/// One compiled property monitor.
enum Monitor {
    /// `Always(pred)` (and `Never(p)` as `Always(¬p)`): violated by the
    /// first absorbed transition whose step refutes `pred`. `holds`
    /// caches `pred` per entry of the graph's step table, so it is
    /// evaluated once per distinct step; `scanned` transitions are
    /// checked; `violation` is an edge index.
    Safety {
        pred: StepPred,
        holds: Vec<bool>,
        scanned: usize,
        violation: Option<usize>,
    },
    /// Violated by the first deadlock state.
    DeadlockFree { violation: Option<usize> },
    /// A bounded-temporal obligation
    /// (`eventually<=k`/`until<=k`/`release<=k`), tracked by
    /// level-synchronized propagation of the obligation-open state set
    /// over the shared [`TemporalSpec`] step classification.
    Temporal(Temporal),
}

impl Monitor {
    fn new(prop: &Prop) -> Self {
        match prop {
            Prop::Always(p) => Monitor::Safety {
                pred: p.clone(),
                holds: Vec::new(),
                scanned: 0,
                violation: None,
            },
            Prop::Never(p) => Monitor::Safety {
                pred: StepPred::negate(p.clone()),
                holds: Vec::new(),
                scanned: 0,
                violation: None,
            },
            Prop::DeadlockFree => Monitor::DeadlockFree { violation: None },
            temporal => Monitor::Temporal(Temporal::new(
                TemporalSpec::from_prop(temporal).expect("remaining variants are temporal"),
            )),
        }
    }

    /// Whether the monitor's verdict is settled: a violation is
    /// recorded, or the temporal propagation concluded.
    fn resolved(&self) -> bool {
        match self {
            Monitor::Safety { violation, .. } => violation.is_some(),
            Monitor::DeadlockFree { violation } => violation.is_some(),
            Monitor::Temporal(tm) => tm.outcome.is_some(),
        }
    }

    /// Reads the graph absorbed up to the boundary of level `depth`.
    fn observe(&mut self, depth: usize, graph: &StateGraph, dropped: bool) {
        match self {
            Monitor::Temporal(tm) => tm.at_boundary(depth, graph, dropped),
            _ => self.scan(graph),
        }
    }

    /// Safety and deadlock monitors: looks for the first refuting
    /// transition or the first deadlock in what `graph` absorbed since
    /// the last scan.
    fn scan(&mut self, graph: &StateGraph) {
        match self {
            Monitor::Safety {
                pred,
                holds,
                scanned,
                violation: violation @ None,
            } => {
                let fresh = &graph.steps()[holds.len()..];
                holds.extend(fresh.iter().map(|step| pred.eval(step)));
                *violation =
                    (*scanned..graph.transition_count()).find(|&e| !holds[graph.step_of(e)]);
                *scanned = graph.transition_count();
            }
            Monitor::DeadlockFree { violation } => *violation = graph.deadlocks().first().copied(),
            Monitor::Safety { .. } | Monitor::Temporal(_) => {}
        }
    }

    /// The verdict on the final `graph`. A stop inside a level leaves
    /// transitions and deadlocks no boundary saw; they still count.
    fn resolve(&mut self, completed: bool, graph: &StateGraph, dropped: bool) -> PropStatus {
        self.scan(graph);
        match self {
            Monitor::Safety { violation, .. } => match *violation {
                Some(edge) => {
                    let (source, step, target) = graph.transition(edge);
                    let mut schedule = graph.schedule_to(source);
                    schedule.push(step.clone());
                    PropStatus::Violated(Counterexample {
                        schedule,
                        state: target,
                    })
                }
                None if completed => PropStatus::Holds,
                None => PropStatus::Undetermined,
            },
            Monitor::DeadlockFree { violation } => match *violation {
                Some(state) => PropStatus::Violated(Counterexample {
                    schedule: graph.schedule_to(state),
                    state,
                }),
                None if completed => PropStatus::Holds,
                None => PropStatus::Undetermined,
            },
            Monitor::Temporal(tm) => {
                tm.finish(completed, graph, dropped);
                match &tm.outcome {
                    Some(TemporalOutcome::Holds) => PropStatus::Holds,
                    Some(TemporalOutcome::Prefix { state }) => {
                        PropStatus::Violated(Counterexample {
                            schedule: tm.witness(*state, tm.depth),
                            state: *state,
                        })
                    }
                    Some(TemporalOutcome::Wedged { state, depth }) => {
                        PropStatus::Violated(Counterexample {
                            schedule: tm.witness(*state, *depth),
                            state: *state,
                        })
                    }
                    Some(TemporalOutcome::Edge {
                        source,
                        step,
                        depth,
                        target,
                    }) => {
                        let mut schedule = tm.witness(*source, *depth);
                        schedule.push(step.clone());
                        PropStatus::Violated(Counterexample {
                            schedule,
                            state: *target,
                        })
                    }
                    Some(TemporalOutcome::Inconclusive) | None => PropStatus::Undetermined,
                }
            }
        }
    }
}

/// How a [`Temporal`] monitor resolved.
enum TemporalOutcome {
    /// Every obligation-open path resolved without a violation: the
    /// property holds. Only concluded while the absorbed transition
    /// relation is still complete (no `max_states` drop yet): the
    /// propagated set under-approximates afterwards, so neither an
    /// empty set nor a clean bound expiry would prove anything.
    Holds,
    /// (Liveness only.) An obligation-open prefix of full length
    /// `bound` exists, ending in `state`.
    Prefix { state: usize },
    /// (Liveness only.) An obligation-open path of length
    /// `depth < bound` ends in deadlock `state`: the run can never
    /// fulfil the obligation.
    Wedged { state: usize, depth: usize },
    /// An obligation-open path of length `depth` from `source` takes a
    /// [`StepClass::Violate`] step into `target` — an `until` step
    /// refuting both `p` and `q`, or a `release` step refuting `q`.
    Edge {
        source: usize,
        step: Step,
        depth: usize,
        target: usize,
    },
    /// The open set resolved *after* the `max_states` bound started
    /// dropping transitions: no violation was found, but "holds" would
    /// be unsound and nothing more can be learned from the incomplete
    /// graph — reported as [`PropStatus::Undetermined`].
    Inconclusive,
}

/// The shared bounded-temporal monitor, parameterized by a
/// [`TemporalSpec`] — one implementation for
/// `EventuallyWithin`, `UntilWithin` and `ReleaseWithin`.
///
/// Invariant: `current` is S_d, the set of states reachable from the
/// initial state by a schedule of exactly `depth` steps each
/// classified [`StepClass::Carry`] (the obligation stayed open);
/// `levels[j]` records, for every member of S_j, the predecessor link
/// that discovered it (for witness reconstruction). S_{d+1} only needs
/// the outgoing edges of S_d's members — all of BFS depth ≤ d, hence
/// fully absorbed by the level-`d` boundary — so the propagation runs
/// level-synchronized with the exploration itself.
struct Temporal {
    spec: TemporalSpec,
    depth: usize,
    current: BTreeSet<usize>,
    levels: Vec<HashMap<usize, (usize, Step)>>,
    outcome: Option<TemporalOutcome>,
}

impl Temporal {
    fn new(spec: TemporalSpec) -> Self {
        let zero_bound = spec.bound() == 0;
        let liveness = spec.liveness();
        let mut tm = Temporal {
            spec,
            depth: 0,
            current: BTreeSet::from([0]),
            levels: vec![HashMap::new()],
            outcome: None,
        };
        if zero_bound {
            // "within zero steps" resolves before any step fires:
            // unsatisfiable for the liveness flavors (the empty prefix
            // is already obligation-open and of full length),
            // trivially satisfied for release
            tm.outcome = Some(if liveness {
                TemporalOutcome::Prefix { state: 0 }
            } else {
                TemporalOutcome::Holds
            });
        }
        tm
    }

    /// Called at the boundary that just absorbed level `depth` — all
    /// outgoing edges of states at BFS depth ≤ `depth` are now known.
    fn at_boundary(&mut self, depth: usize, graph: &StateGraph, dropped: bool) {
        if self.outcome.is_none() && self.depth == depth {
            self.advance(graph, dropped);
        }
    }

    /// One round. A deadlocked member of S_d (d < bound) wedges the run
    /// with its obligation open — a violation for the liveness flavors
    /// only (release discharges on run end, so its deadlocked members
    /// simply stop contributing successors); otherwise propagate.
    fn advance(&mut self, graph: &StateGraph, dropped: bool) {
        match self.current.iter().find(|&&s| graph.is_deadlock(s)) {
            Some(&state) if self.spec.liveness() => {
                let depth = self.depth;
                self.outcome = Some(TemporalOutcome::Wedged { state, depth });
            }
            _ => self.propagate(graph, dropped),
        }
    }

    /// One propagation step: S_d → S_{d+1} over the absorbed
    /// graph, classifying every outgoing edge through the shared
    /// [`TemporalSpec`]. The scan order (BTreeSet members, canonical
    /// absorption order within each state's outgoing edges) is
    /// worker-count independent, so the first violating edge — and
    /// hence the counterexample — is too.
    fn propagate(&mut self, graph: &StateGraph, dropped: bool) {
        let mut next = BTreeSet::new();
        let mut level: HashMap<usize, (usize, Step)> = HashMap::new();
        for &s in &self.current {
            for (_, step, t) in graph.outgoing(s) {
                match self.spec.classify(step) {
                    StepClass::Discharge => {}
                    StepClass::Carry => {
                        if next.insert(t) {
                            level.insert(t, (s, step.clone()));
                        }
                    }
                    StepClass::Violate => {
                        self.outcome = Some(TemporalOutcome::Edge {
                            source: s,
                            step: step.clone(),
                            depth: self.depth,
                            target: t,
                        });
                        return;
                    }
                }
            }
        }
        self.levels.push(level);
        self.current = next;
        self.depth += 1;
        if self.current.is_empty() {
            // every open path resolved; this proves the property only
            // while the absorbed graph is complete — after a
            // max_states drop it may merely reflect missing
            // transitions (including missed violating edges)
            self.outcome = Some(if dropped {
                TemporalOutcome::Inconclusive
            } else {
                TemporalOutcome::Holds
            });
        } else if self.depth == self.spec.bound() {
            self.outcome = Some(if self.spec.liveness() {
                // an obligation-open prefix of full length: states in
                // `current` are genuinely reached, so this is sound
                // even on an incomplete graph
                let state = *self.current.iter().next().expect("non-empty");
                TemporalOutcome::Prefix { state }
            } else if dropped {
                TemporalOutcome::Inconclusive
            } else {
                // release: the obligation expired with `q` sustained
                // on every surviving path — discharged
                TemporalOutcome::Holds
            });
        }
    }

    /// After a *complete* exploration the graph is final: keep
    /// propagating (cycles can extend obligation-open paths past the
    /// BFS horizon) until the monitor resolves — at most `bound`
    /// rounds.
    fn finish(&mut self, completed: bool, graph: &StateGraph, dropped: bool) {
        while completed && self.outcome.is_none() {
            self.advance(graph, dropped);
        }
    }

    /// Reconstructs the obligation-open schedule of length `depth`
    /// ending in `state`, through the per-level predecessor links.
    fn witness(&self, state: usize, depth: usize) -> Schedule {
        let mut steps = Vec::new();
        let mut s = state;
        for j in (1..=depth).rev() {
            let (prev, step) = &self.levels[j][&s];
            steps.push(step.clone());
            s = *prev;
        }
        steps.reverse();
        steps.into_iter().collect()
    }
}

/// The [`ExploreVisitor`] wiring the monitors into the explorer's
/// level boundaries; the optional progress callback is consulted at
/// every checkpoint and at every level boundary that leaves a monitor
/// undecided, so a service can stream progress and cancel a check
/// cooperatively.
struct CheckVisitor<'p, 'f> {
    monitors: Vec<Monitor>,
    /// Per monitor, the state count at the level boundary that first
    /// saw it resolved — where a check of that property alone stops.
    decided_at: Vec<Option<usize>>,
    /// Whether the `max_states` bound has dropped a transition yet,
    /// poisoning "nothing reachable" conclusions.
    dropped: bool,
    progress: Option<&'p mut ProgressFn<'f>>,
}

impl ExploreVisitor for CheckVisitor<'_, '_> {
    fn on_states_dropped(&mut self, _depth: usize) {
        self.dropped = true;
    }

    fn on_level_end(&mut self, depth: usize, graph: &StateGraph) -> VisitControl {
        let mut all_decided = true;
        for (m, decided_at) in self.monitors.iter_mut().zip(&mut self.decided_at) {
            m.observe(depth, graph, self.dropped);
            if decided_at.is_none() && m.resolved() {
                *decided_at = Some(graph.state_count());
            }
            all_decided &= decided_at.is_some();
        }
        if all_decided {
            return VisitControl::Stop;
        }
        // boundaries double as cancellation points: small levels may
        // never reach a transition-count checkpoint
        self.on_progress(graph.state_count(), graph.transition_count(), depth)
    }

    fn on_progress(&mut self, states: usize, transitions: usize, depth: usize) -> VisitControl {
        match &mut self.progress {
            Some(f) => f(states, transitions, depth),
            None => VisitControl::Continue,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moccml_ccsl::{Alternation, Exclusion, Precedence};
    use moccml_kernel::{EventId, Specification, Universe};
    use std::sync::Arc;

    /// A check of `prop` alone.
    fn check_one(program: &Program, prop: &Prop, options: &ExploreOptions) -> PropStatus {
        check_props(program, std::slice::from_ref(prop), options)
            .statuses
            .remove(0)
    }

    fn alternating() -> (Arc<Program>, EventId, EventId) {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("alt", u);
        spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
        (Program::new(spec), a, b)
    }

    #[test]
    fn observed_check_streams_progress_and_matches_plain_check() {
        let (program, a, b) = alternating();
        let prop = Prop::Never(StepPred::and(StepPred::fired(a), StepPred::fired(b)));
        let mut calls = Vec::new();
        let mut on_progress = |states: usize, transitions: usize, depth: usize| {
            calls.push((states, transitions, depth));
            VisitControl::Continue
        };
        let observed = check(
            &program,
            std::slice::from_ref(&prop),
            CheckOptions::new().with_progress(&mut on_progress),
        );
        let plain = check_props(
            &program,
            std::slice::from_ref(&prop),
            &ExploreOptions::default(),
        );
        assert_eq!(observed, plain, "the callback must not change the verdict");
        assert!(
            !calls.is_empty(),
            "level boundaries report progress even on tiny spaces"
        );
    }

    #[test]
    fn observed_check_stop_yields_undetermined_not_a_verdict() {
        // an unbounded precedence: the space is infinite, `never(b)`
        // is violated at depth 2 — but we abort at the very first
        // checkpoint, before any level is absorbed into a verdict
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("unbounded", u);
        spec.add_constraint(Box::new(Precedence::strict("a<b", a, b)));
        let program = Program::new(spec);
        let prop = Prop::Never(StepPred::fired(b));
        let mut on_progress = |_: usize, _: usize, _: usize| VisitControl::Stop;
        let report = check(
            &program,
            std::slice::from_ref(&prop),
            CheckOptions::new().with_progress(&mut on_progress),
        );
        assert!(!report.completed);
        assert_eq!(report.statuses[0], PropStatus::Undetermined);
    }

    #[test]
    fn safety_holds_on_complete_spaces() {
        let (program, a, b) = alternating();
        // the alternation never fires a and b together
        let status = check_one(
            &program,
            &Prop::Never(StepPred::and(StepPred::fired(a), StepPred::fired(b))),
            &ExploreOptions::default(),
        );
        assert_eq!(status, PropStatus::Holds);
    }

    #[test]
    fn safety_violation_is_shortest_and_replayable() {
        let (program, _, b) = alternating();
        let status = check_one(
            &program,
            &Prop::Never(StepPred::fired(b)),
            &ExploreOptions::default(),
        );
        let PropStatus::Violated(ce) = status else {
            panic!("b fires on the second step");
        };
        assert_eq!(ce.schedule.len(), 2);
        assert!(ce.schedule.steps()[1].contains(b));
        assert!(ce.replays_on(&program));
    }

    #[test]
    fn always_reports_the_first_refuting_step() {
        let (program, a, b) = alternating();
        // "every step fires a" is refuted by the second step {b}
        let status = check_one(
            &program,
            &Prop::Always(StepPred::fired(a)),
            &ExploreOptions::default(),
        );
        let PropStatus::Violated(ce) = status else {
            panic!("violated");
        };
        assert_eq!(ce.schedule.len(), 2);
        assert!(ce.schedule.steps()[1].contains(b));
    }

    #[test]
    fn deadlock_free_finds_the_wedge() {
        let mut u = Universe::new();
        let (a, b, c) = (u.event("a"), u.event("b"), u.event("c"));
        let mut spec = Specification::new("wedge", u);
        spec.add_constraint(Box::new(Precedence::strict("a<b", a, b).with_bound(1)));
        spec.add_constraint(Box::new(Precedence::strict("c<b", c, b)));
        spec.add_constraint(Box::new(Precedence::strict("b<c", b, c)));
        let program = Program::new(spec);
        let status = check_one(&program, &Prop::DeadlockFree, &ExploreOptions::default());
        let PropStatus::Violated(ce) = status else {
            panic!("wedges after a");
        };
        assert_eq!(ce.schedule.len(), 1);
        assert!(ce.schedule.steps()[0].contains(a));
        assert!(ce.replays_on(&program));
    }

    #[test]
    fn bounded_liveness_violation_has_exact_length() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("lazy", u);
        // b needs a first, but a may fire forever without b
        spec.add_constraint(Box::new(Precedence::strict("a<b", a, b)));
        let program = Program::new(spec);
        let status = check_one(
            &program,
            &Prop::EventuallyWithin(StepPred::fired(b), 3),
            &ExploreOptions::default(),
        );
        let PropStatus::Violated(ce) = status else {
            panic!("a a a never fires b");
        };
        assert_eq!(ce.schedule.len(), 3);
        assert!(ce.schedule.iter().all(|s| !s.contains(b)));
        assert!(ce.replays_on(&program));
    }

    #[test]
    fn bounded_liveness_holds_when_pred_is_forced() {
        let (program, a, _) = alternating();
        // a must fire in the very first step of any run
        let status = check_one(
            &program,
            &Prop::EventuallyWithin(StepPred::fired(a), 1),
            &ExploreOptions::default(),
        );
        assert_eq!(status, PropStatus::Holds);
    }

    #[test]
    fn bounded_liveness_detects_wedged_runs() {
        let mut u = Universe::new();
        let (a, b, c) = (u.event("a"), u.event("b"), u.event("c"));
        let mut spec = Specification::new("wedge", u);
        spec.add_constraint(Box::new(Precedence::strict("a<b", a, b).with_bound(1)));
        spec.add_constraint(Box::new(Precedence::strict("c<b", c, b)));
        spec.add_constraint(Box::new(Precedence::strict("b<c", b, c)));
        let program = Program::new(spec);
        // b never fires, and the run wedges after one step — long
        // before the bound of 50 is reached
        let status = check_one(
            &program,
            &Prop::EventuallyWithin(StepPred::fired(b), 50),
            &ExploreOptions::default(),
        );
        let PropStatus::Violated(ce) = status else {
            panic!("wedged pred-free");
        };
        assert!(ce.schedule.len() <= 1);
        assert!(ce.replays_on(&program));
    }

    #[test]
    fn bounded_liveness_propagates_past_the_bfs_horizon() {
        // the alternation's space has BFS depth 2, but pred-free paths
        // cycle: "c fires within 5" must still be refuted by unrolling
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let c = u.event("c");
        let mut spec = Specification::new("alt+c", u);
        spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
        spec.add_constraint(Box::new(Exclusion::new("c#a", [c, a])));
        let program = Program::new(spec);
        let status = check_one(
            &program,
            &Prop::EventuallyWithin(StepPred::fired(c), 5),
            &ExploreOptions::default(),
        );
        let PropStatus::Violated(ce) = status else {
            panic!("a b a b a avoids c");
        };
        assert_eq!(ce.schedule.len(), 5);
        assert!(ce.replays_on(&program));
    }

    #[test]
    fn zero_bound_is_unsatisfiable() {
        let (program, a, _) = alternating();
        let status = check_one(
            &program,
            &Prop::EventuallyWithin(StepPred::fired(a), 0),
            &ExploreOptions::default(),
        );
        let PropStatus::Violated(ce) = status else {
            panic!("k=0 is unsatisfiable");
        };
        assert!(ce.schedule.is_empty());
    }

    #[test]
    fn bounded_until_holds_when_the_goal_is_forced() {
        let (program, a, b) = alternating();
        // every run is a ; b ; a ; b …: a sustains until b discharges
        let status = check_one(
            &program,
            &Prop::UntilWithin(StepPred::fired(a), StepPred::fired(b), 2),
            &ExploreOptions::default(),
        );
        assert_eq!(status, PropStatus::Holds);
    }

    #[test]
    fn bounded_until_violated_by_a_sustain_breaking_step() {
        let (program, a, _) = alternating();
        // "a sustains until c" with c outside the spec (never fires):
        // the b-step at depth 2 refutes both — the shortest violating
        // edge
        let c = EventId::from_index(2);
        let status = check_one(
            &program,
            &Prop::UntilWithin(StepPred::fired(a), StepPred::fired(c), 5),
            &ExploreOptions::default(),
        );
        let PropStatus::Violated(ce) = status else {
            panic!("the b step breaks the sustain");
        };
        assert_eq!(ce.schedule.len(), 2);
        assert!(ce.replays_on(&program));
    }

    #[test]
    fn bounded_until_expires_like_eventually() {
        // until<=k(⊤-like sustain, q) must agree with eventually<=k(q)
        // when the sustain always holds
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("lazy", u);
        spec.add_constraint(Box::new(Precedence::strict("a<b", a, b)));
        let program = Program::new(spec);
        let status = check_one(
            &program,
            &Prop::UntilWithin(StepPred::fired(a), StepPred::fired(b), 3),
            &ExploreOptions::default(),
        );
        let PropStatus::Violated(ce) = status else {
            panic!("a a a never fires b");
        };
        assert_eq!(ce.schedule.len(), 3);
        assert!(ce.replays_on(&program));
    }

    #[test]
    fn bounded_release_violated_when_q_breaks_early() {
        let (program, a, b) = alternating();
        // "a holds released by b" — but b's own step drops a
        let status = check_one(
            &program,
            &Prop::ReleaseWithin(StepPred::fired(b), StepPred::fired(a), 4),
            &ExploreOptions::default(),
        );
        let PropStatus::Violated(ce) = status else {
            panic!("the b step refutes the sustained a");
        };
        assert_eq!(ce.schedule.len(), 2);
        assert!(ce.replays_on(&program));
    }

    #[test]
    fn bounded_release_holds_on_expiry_and_discharge() {
        let (program, a, b) = alternating();
        // expiry: a holds for the single step the obligation lives
        let expiry = check_one(
            &program,
            &Prop::ReleaseWithin(StepPred::fired(b), StepPred::fired(a), 1),
            &ExploreOptions::default(),
        );
        assert_eq!(expiry, PropStatus::Holds);
        // discharge: the first step both sustains and releases
        let discharge = check_one(
            &program,
            &Prop::ReleaseWithin(StepPred::fired(a), StepPred::fired(a), 9),
            &ExploreOptions::default(),
        );
        assert_eq!(discharge, PropStatus::Holds);
        // zero bound holds trivially
        let zero = check_one(
            &program,
            &Prop::ReleaseWithin(StepPred::fired(b), StepPred::fired(a), 0),
            &ExploreOptions::default(),
        );
        assert_eq!(zero, PropStatus::Holds);
    }

    #[test]
    fn bounded_until_detects_wedged_runs() {
        let mut u = Universe::new();
        let (a, b, c) = (u.event("a"), u.event("b"), u.event("c"));
        let mut spec = Specification::new("wedge", u);
        spec.add_constraint(Box::new(Precedence::strict("a<b", a, b).with_bound(1)));
        spec.add_constraint(Box::new(Precedence::strict("c<b", c, b)));
        spec.add_constraint(Box::new(Precedence::strict("b<c", b, c)));
        let program = Program::new(spec);
        let status = check_one(
            &program,
            &Prop::UntilWithin(StepPred::fired(a), StepPred::fired(b), 50),
            &ExploreOptions::default(),
        );
        let PropStatus::Violated(ce) = status else {
            panic!("wedged with the obligation open");
        };
        assert!(ce.schedule.len() <= 1);
        assert!(ce.replays_on(&program));
    }

    #[test]
    fn early_stop_visits_fewer_states_than_full_exploration() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("unbounded", u);
        spec.add_constraint(Box::new(Precedence::strict("a<b", a, b)));
        let program = Program::new(spec);
        let options = ExploreOptions::default().with_max_states(500);
        let full = program.explore(&options).state_count();
        let report = check_props(&program, &[Prop::Never(StepPred::fired(b))], &options);
        assert!(report.any_violated());
        assert!(
            report.states_visited < full,
            "early stop ({}) must beat full exploration ({full})",
            report.states_visited
        );
    }

    #[test]
    fn bounded_liveness_is_undetermined_not_holds_under_truncation() {
        // regression: under max_states truncation the explorer drops
        // transitions, so the pred-free set empties spuriously — the
        // monitor must not certify a genuinely violated property
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("unbounded", u);
        spec.add_constraint(Box::new(Precedence::strict("a<b", a, b)));
        let program = Program::new(spec);
        // the run `a ; a` is b-free at full bound length: violated
        let prop = Prop::EventuallyWithin(StepPred::fired(b), 2);
        let full = check_one(&program, &prop, &ExploreOptions::default());
        assert!(full.is_violated(), "a;a avoids b");
        let truncated = check_one(
            &program,
            &prop,
            &ExploreOptions::default().with_max_states(1),
        );
        assert_eq!(truncated, PropStatus::Undetermined);
    }

    #[test]
    fn undetermined_on_truncated_exploration() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("unbounded", u);
        spec.add_constraint(Box::new(Precedence::strict("a<b", a, b)));
        let program = Program::new(spec);
        // safety that holds everywhere, on a space truncated by bounds
        let report = check_props(
            &program,
            &[Prop::Always(StepPred::implies(b, b))],
            &ExploreOptions::default().with_max_states(5),
        );
        assert!(!report.completed);
        assert_eq!(report.statuses[0], PropStatus::Undetermined);
    }

    #[test]
    fn multi_prop_reports_keep_input_order() {
        let (program, a, b) = alternating();
        let props = [
            Prop::DeadlockFree,
            Prop::Never(StepPred::and(StepPred::fired(a), StepPred::fired(b))),
            Prop::Never(StepPred::fired(a)),
        ];
        let report = check_props(&program, &props, &ExploreOptions::default());
        // the third prop violates at level 0, but the run goes on until
        // the other two are decided on the complete space
        assert_eq!(report.statuses[0], PropStatus::Holds);
        assert_eq!(report.statuses[1], PropStatus::Holds);
        assert!(report.statuses[2].is_violated());
        assert_eq!(report.first_violation().expect("violated").0, 2);
        assert!(report.completed);
        // each property costs what its solo check costs
        for (prop, &decided_at) in props.iter().zip(&report.decided_at) {
            let solo = check_props(
                &program,
                std::slice::from_ref(prop),
                &ExploreOptions::default(),
            );
            assert_eq!(decided_at, solo.states_visited, "{prop}");
        }
    }

    /// Two independent alternations: the cone of `a`/`b` excludes the
    /// `x`/`y` constraint, so a sliced check explores strictly fewer
    /// states (2 instead of the 2×2 product).
    fn decoupled() -> (Arc<Program>, [EventId; 4]) {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let (x, y) = (u.event("x"), u.event("y"));
        let mut spec = Specification::new("decoupled", u);
        spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
        spec.add_constraint(Box::new(Alternation::new("x~y", x, y)));
        (Program::new(spec), [a, b, x, y])
    }

    #[test]
    fn sliceable_events_matches_the_stutter_invariance_rule() {
        let a = EventId::from_index(0);
        // Never(fired(a)): p(∅) = false — sliceable
        assert!(sliceable_events(&Prop::Never(StepPred::fired(a))).is_some());
        // Always(implies(a, a)): p(∅) = true — sliceable
        assert!(sliceable_events(&Prop::Always(StepPred::implies(a, a))).is_some());
        // polarity mismatch: a foreign-event step would flip these
        assert!(sliceable_events(&Prop::Always(StepPred::fired(a))).is_none());
        assert!(sliceable_events(&Prop::Never(StepPred::negate(StepPred::fired(a)))).is_none());
        // liveness and deadlock-freedom couple cone and remainder
        assert!(sliceable_events(&Prop::EventuallyWithin(StepPred::fired(a), 3)).is_none());
        assert!(sliceable_events(&Prop::DeadlockFree).is_none());
    }

    #[test]
    fn sliced_check_preserves_holds_with_fewer_states() {
        let (program, [a, b, _, _]) = decoupled();
        let prop = Prop::Never(StepPred::and(StepPred::fired(a), StepPred::fired(b)));
        let full = check(&program, std::slice::from_ref(&prop), CheckOptions::new());
        let sliced = check(
            &program,
            std::slice::from_ref(&prop),
            CheckOptions::new().with_slice(true),
        );
        assert_eq!(full.statuses[0], PropStatus::Holds);
        assert_eq!(sliced.statuses[0], PropStatus::Holds);
        assert!(
            sliced.states_visited < full.states_visited,
            "{} !< {}",
            sliced.states_visited,
            full.states_visited
        );
    }

    #[test]
    fn sliced_violation_replays_on_the_full_program() {
        let (program, [_, b, _, _]) = decoupled();
        let prop = Prop::Never(StepPred::fired(b));
        let full = check(&program, std::slice::from_ref(&prop), CheckOptions::new());
        let sliced = check(
            &program,
            std::slice::from_ref(&prop),
            CheckOptions::new().with_slice(true),
        );
        let PropStatus::Violated(fce) = &full.statuses[0] else {
            panic!("b fires");
        };
        let PropStatus::Violated(sce) = &sliced.statuses[0] else {
            panic!("b fires in the slice too");
        };
        assert_eq!(fce.schedule.len(), sce.schedule.len());
        assert!(sce.replays_on(&program));
        assert!(sliced.states_visited <= full.states_visited);
    }

    #[test]
    fn ineligible_props_fall_back_to_the_full_program() {
        let (program, [_, _, x, _]) = decoupled();
        // DeadlockFree must never slice: both reports are the full run
        let full = check(
            &program,
            std::slice::from_ref(&Prop::DeadlockFree),
            CheckOptions::new(),
        );
        let sliced = check(
            &program,
            std::slice::from_ref(&Prop::DeadlockFree),
            CheckOptions::new().with_slice(true),
        );
        assert_eq!(full, sliced);
        // a total cone also falls back (same program, no recompile)
        let touching_all = Prop::Never(StepPred::and(
            StepPred::fired(x),
            StepPred::fired(EventId::from_index(0)),
        ));
        let f = check(
            &program,
            std::slice::from_ref(&touching_all),
            CheckOptions::new(),
        );
        let s = check(
            &program,
            std::slice::from_ref(&touching_all),
            CheckOptions::new().with_slice(true),
        );
        assert_eq!(f, s);
    }
}
