//! [`Program`]: the immutable half of a compiled specification.
//!
//! PR 2's `CompiledSpec` fused two layers into one object: the
//! *compiled artifacts* of a specification (the interned
//! constrained-event list, the per-constraint lowered-formula memo) and
//! the *run state* that queries mutate (constraint states, the
//! currently selected formula per constraint). That fusion made the
//! hot path single-threaded: exploration could not fan out without
//! cloning the whole object — and cloned memos no longer share cache
//! hits.
//!
//! This module is the split's immutable side. A [`Program`] is
//! `Send + Sync` and never changes after compilation:
//!
//! * the constrained-event list is interned once;
//! * every constraint's event footprint is precomputed once;
//! * the constraints are grouped once into the connected components of
//!   the footprint graph, which [`StepSet`](crate::StepSet) factors the
//!   step set by;
//! * the `(constraint, local state) → lowered formula` memo lives
//!   behind interior sharding ([`FormulaMemo`]), so *all* cursors of a
//!   program — across threads — share every cache hit: a formula is
//!   lowered exactly once per reached constraint state, program-wide.
//!   An entry of a constraint that forms a component alone also caches
//!   that component's local step list, enumerated on first use.
//!
//! The mutable side is [`Cursor`](crate::Cursor): cheap per-worker run
//! state created by [`Program::cursor`]. One program can drive any
//! number of concurrent cursors, which is what makes the parallel
//! state-space explorer ([`explore`](crate::explore)) possible.

use crate::cursor::Cursor;
use crate::explorer::{explore_program, ExploreOptions, StateSpace};
use crate::solver::models;
use moccml_kernel::{EventId, Specification, StateKey, Step, StepFormula};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock, Weak};

/// Number of formula-memo shards. Sixteen keeps lock contention
/// negligible for any worker count
/// `std::thread::available_parallelism` realistically reports while
/// wasting no memory on small programs. (The explorer's state interner
/// is separate: 64 shards picked by a splitmix fingerprint.)
const SHARD_COUNT: usize = 16;

/// One memo shard: `(constraint index, local state) → lowered formula`.
type MemoShard = HashMap<(usize, StateKey), Arc<Lowered>>;

/// One memo entry: a constraint's lowered formula in one local state,
/// and the local step list of that constraint alone, enumerated on
/// first use when the constraint forms a component by itself.
#[derive(Debug)]
pub(crate) struct Lowered {
    pub(crate) formula: StepFormula,
    steps: OnceLock<Vec<Step>>,
}

impl Lowered {
    fn new(formula: StepFormula) -> Self {
        Lowered {
            formula,
            steps: OnceLock::new(),
        }
    }

    /// The steps over `events` (the component's, with the empty one
    /// when acceptable) that the formula accepts, sorted.
    pub(crate) fn steps(&self, events: &[EventId]) -> &[Step] {
        self.steps
            .get_or_init(|| models(&[&self.formula], events, true))
    }
}

/// A connected component of the footprint graph: constraints that share
/// events, directly or through one another, and the events they range
/// over in increasing id order.
#[derive(Debug)]
pub(crate) struct Component {
    pub(crate) constraints: Vec<usize>,
    pub(crate) events: Vec<EventId>,
}

/// The sharded `(constraint index, local state) → lowered formula`
/// memo. Shards are plain `Mutex<HashMap>`s: lookups are short, and a
/// cursor-local L1 cache in front of this map (see
/// [`Cursor`](crate::Cursor)) means a shard is only locked the *first*
/// time a cursor meets a `(constraint, state)` pair.
#[derive(Debug)]
pub(crate) struct FormulaMemo {
    shards: Vec<Mutex<MemoShard>>,
}

impl FormulaMemo {
    fn new() -> Self {
        FormulaMemo {
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    /// Returns the memoised formula for `(slot, key)`, lowering it with
    /// `lower` on the program-wide first visit.
    pub(crate) fn get_or_insert(
        &self,
        slot: usize,
        key: &StateKey,
        lower: impl FnOnce() -> StepFormula,
    ) -> Arc<Lowered> {
        let mut h = DefaultHasher::new();
        (slot, key).hash(&mut h);
        let mut shard = self.shards[h.finish() as usize % SHARD_COUNT]
            .lock()
            .expect("formula memo shard lock");
        if let Some(f) = shard.get(&(slot, key.clone())) {
            return Arc::clone(f);
        }
        let f = Arc::new(Lowered::new(lower()));
        shard.insert((slot, key.clone()), Arc::clone(&f));
        f
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("formula memo shard lock").len())
            .sum()
    }
}

/// A [`Specification`] compiled into an immutable, shareable program.
///
/// Constructed once with [`new`](Program::new) (owned) or
/// [`compile`](Program::compile) (borrowed; clones the local states and
/// shares the constraints); both return `Arc<Program>` because a
/// program's whole point is to be shared — every
/// [`Cursor`](crate::Cursor) keeps a handle to its program. The
/// constraint population is frozen at compile time: that is what makes
/// the interned event list, the per-constraint footprints and the
/// sharded formula memo sound. Constraints are pure functions of their
/// local state, so the program's one copy of them serves every cursor.
///
/// A program carries **no run state**. Queries that need one go through
/// a cursor ([`Program::cursor`]); [`Program::explore`] spawns its own
/// worker cursors internally.
///
/// # Example
///
/// ```
/// use moccml_ccsl::Alternation;
/// use moccml_engine::{Program, SolverOptions};
/// use moccml_kernel::{Specification, Universe};
///
/// let mut u = Universe::new();
/// let (a, b) = (u.event("a"), u.event("b"));
/// let mut spec = Specification::new("alt", u);
/// spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
///
/// let program = Program::new(spec);
/// let mut cursor = program.cursor();
/// let options = SolverOptions::default();
/// let first = cursor.acceptable_steps(&options);
/// assert_eq!(first.len(), 1); // only {a}
/// cursor.fire(&first[0]).expect("acceptable");
/// assert!(cursor.acceptable_steps(&options)[0].contains(b));
/// ```
#[derive(Debug)]
pub struct Program {
    /// The template specification, frozen in the state it had at
    /// compile time. Cursors read its constraints; nothing ever
    /// mutates it.
    spec: Specification,
    /// Snapshot of the template's global state — the root every cursor
    /// starts from.
    template_key: StateKey,
    /// The interned list of constrained events the solver ranges over.
    events: Vec<EventId>,
    /// Per-constraint event footprints, used by cursors to skip
    /// refreshing constraints a fired step cannot have touched.
    footprints: Vec<Step>,
    /// The connected components of the footprint graph, ordered by
    /// their first constraint.
    components: Vec<Component>,
    /// Every constrained event with its component, in the bit priority
    /// of the `Ord` on [`Step`]: word 0 first, high bits first.
    priority: Vec<(usize, EventId)>,
    /// Per-constraint `(local state key, lowered formula)` at the
    /// template state — the starting slots of every fresh cursor.
    initial_slots: Vec<(StateKey, Arc<Lowered>)>,
    /// The program-wide sharded formula memo.
    memo: FormulaMemo,
    /// Back-reference to the owning `Arc`, so `cursor(&self)` can hand
    /// out handles without the caller threading the `Arc` around.
    self_ref: Weak<Program>,
}

impl Program {
    /// Compiles an owned specification.
    #[must_use]
    pub fn new(spec: Specification) -> Arc<Self> {
        let events: Vec<EventId> = spec.constrained_events().iter().collect();
        let template_key = spec.state_key();
        let keys = spec.locals().to_vec();
        let formulas = spec.lowered_formulas();
        let footprints = spec.constraint_footprints();
        let memo = FormulaMemo::new();
        let components = components(&footprints);
        let mut priority: Vec<(usize, EventId)> = components
            .iter()
            .enumerate()
            .flat_map(|(c, comp)| comp.events.iter().map(move |&e| (c, e)))
            .collect();
        priority.sort_by_key(|&(_, e)| (e.index() / 64, std::cmp::Reverse(e.index() % 64)));
        let initial_slots: Vec<(StateKey, Arc<Lowered>)> = keys
            .into_iter()
            .zip(formulas)
            .enumerate()
            .map(|(i, (key, formula))| {
                let formula = memo.get_or_insert(i, &key, || formula);
                (key, formula)
            })
            .collect();
        Arc::new_cyclic(|self_ref| Program {
            spec,
            template_key,
            events,
            footprints,
            components,
            priority,
            initial_slots,
            memo,
            self_ref: self_ref.clone(),
        })
    }

    /// Compiles a borrowed specification (clones its local states; the
    /// constraints are shared).
    #[must_use]
    pub fn compile(spec: &Specification) -> Arc<Self> {
        Self::new(spec.clone())
    }

    /// Read access to the template specification (in its compile-time
    /// state).
    #[must_use]
    pub fn specification(&self) -> &Specification {
        &self.spec
    }

    /// The global state key of the template — the state fresh cursors
    /// start in.
    #[must_use]
    pub fn template_key(&self) -> &StateKey {
        &self.template_key
    }

    /// The interned list of constrained events the solver ranges over.
    #[must_use]
    pub fn constrained_events(&self) -> &[EventId] {
        &self.events
    }

    /// Total number of `(constraint, local state)` formulas currently
    /// memoised program-wide — a cache-size observability hook for
    /// tests and tuning. Grows as cursors visit fresh constraint
    /// states; never shrinks.
    #[must_use]
    pub fn cached_formula_count(&self) -> usize {
        self.memo.len()
    }

    /// A fresh cursor positioned at the template state. Cursors are
    /// cheap (one local state and memo handle per constraint; the
    /// constraints and the memo stay in the program) and independent:
    /// one program can drive any number of them, from any number of
    /// threads.
    #[must_use]
    pub fn cursor(&self) -> Cursor {
        let program = self
            .self_ref
            .upgrade()
            .expect("a Program is only reachable through its Arc");
        Cursor::new(program)
    }

    /// Explores the reachable scheduling state-space from the template
    /// state. See the [`explorer`](crate::StateSpace) docs for the
    /// graph's semantics and the determinism guarantee;
    /// [`ExploreOptions::workers`] selects the parallel frontier width.
    #[must_use]
    pub fn explore(&self, options: &ExploreOptions) -> StateSpace {
        explore_program(self, self.template_key.clone(), options, &mut ())
    }

    /// Explores like [`explore`](Program::explore) while streaming every
    /// absorbed transition, deadlock and level boundary to `visitor` —
    /// the on-the-fly hook `moccml-verify` checks properties through.
    /// The visitor runs in the canonical absorption order and can stop
    /// the BFS at a level boundary; both the callback sequence and the
    /// resulting (possibly early-stopped) [`StateSpace`] are identical
    /// for every [`ExploreOptions::workers`] count.
    #[must_use]
    pub fn explore_with(
        &self,
        options: &ExploreOptions,
        visitor: &mut dyn crate::ExploreVisitor,
    ) -> StateSpace {
        explore_program(self, self.template_key.clone(), options, visitor)
    }

    /// The per-constraint event footprints, parallel to
    /// `specification().constraints()`: constraint `i` reacts to a step
    /// iff the step intersects `footprints()[i]`.
    #[must_use]
    pub fn footprints(&self) -> &[Step] {
        &self.footprints
    }

    /// Indices of the constraints in the cone of influence of `seeds`:
    /// the least fixpoint of "a constraint whose footprint intersects
    /// the seed events (or the footprint of a constraint already in the
    /// cone) is in the cone". Sorted ascending.
    ///
    /// Because every constraint stutters through steps disjoint from
    /// its footprint (the kernel-wide contract documented on
    /// [`Constraint`](moccml_kernel::Constraint)), constraints outside
    /// the cone can neither block nor be blocked by anything the seeded
    /// events do — they are independent of the seeds' behaviour.
    #[must_use]
    pub fn cone_of_influence(&self, seeds: &[EventId]) -> Vec<usize> {
        let mut events = Step::from_events(seeds.iter().copied());
        let mut in_cone = vec![false; self.footprints.len()];
        loop {
            let mut changed = false;
            for (i, fp) in self.footprints.iter().enumerate() {
                if !in_cone[i] && !fp.is_disjoint_from(&events) && !fp.is_empty() {
                    in_cone[i] = true;
                    events = events.union(fp);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        in_cone
            .iter()
            .enumerate()
            .filter_map(|(i, &keep)| keep.then_some(i))
            .collect()
    }

    /// Compiles the cone-of-influence slice of this program for
    /// `seeds`: a program over the **same universe** containing only
    /// the constraints returned by
    /// [`cone_of_influence`](Program::cone_of_influence), each shared
    /// with this program and in its compile-time state.
    ///
    /// When the cone covers every constraint the program itself is
    /// returned (no recompilation). Schedules and steps transfer
    /// between the slice and the full program unchanged, because event
    /// ids are shared. Whether a *verdict* transfers is the caller's
    /// proof obligation — `moccml-verify` applies the slice only to
    /// stutter-invariant safety properties (see
    /// `CheckOptions::with_slice` there).
    #[must_use]
    pub fn slice(&self, seeds: &[EventId]) -> Arc<Program> {
        let cone = self.cone_of_influence(seeds);
        if cone.len() == self.spec.constraint_count() {
            return self
                .self_ref
                .upgrade()
                .expect("a Program is only reachable through its Arc");
        }
        let mut sliced = Specification::new(self.spec.name(), self.spec.universe().clone());
        for i in cone {
            sliced.share_constraint(&self.spec, i);
        }
        Program::new(sliced)
    }

    /// The starting slots of a fresh cursor.
    pub(crate) fn initial_slots(&self) -> &[(StateKey, Arc<Lowered>)] {
        &self.initial_slots
    }

    /// The connected components of the footprint graph.
    pub(crate) fn components(&self) -> &[Component] {
        &self.components
    }

    /// The constrained events with their components, in the bit
    /// priority of the `Ord` on [`Step`].
    pub(crate) fn priority(&self) -> &[(usize, EventId)] {
        &self.priority
    }

    /// The program-wide formula memo.
    pub(crate) fn memo(&self) -> &FormulaMemo {
        &self.memo
    }
}

/// Groups constraints into the connected components of the footprint
/// graph (constraints are linked when their footprints meet), ordered
/// by first constraint. A constraint with an empty footprint is a
/// component of its own.
fn components(footprints: &[Step]) -> Vec<Component> {
    let mut groups: Vec<(Vec<usize>, Step)> = Vec::new();
    for (i, fp) in footprints.iter().enumerate() {
        let mut merged = (vec![i], fp.clone());
        groups.retain(|(constraints, events)| {
            if events.is_disjoint_from(fp) {
                return true;
            }
            merged.0.extend(constraints);
            merged.1 = merged.1.union(events);
            false
        });
        groups.push(merged);
    }
    let mut components: Vec<Component> = groups
        .into_iter()
        .map(|(mut constraints, events)| {
            constraints.sort_unstable();
            Component {
                constraints,
                events: events.iter().collect(),
            }
        })
        .collect();
    components.sort_by_key(|c| c.constraints[0]);
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolverOptions;
    use moccml_ccsl::Alternation;
    use moccml_kernel::Universe;

    fn alternating() -> (Specification, EventId, EventId) {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("alt", u);
        spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
        (spec, a, b)
    }

    #[test]
    fn program_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Program>();
    }

    #[test]
    fn cursors_share_one_memo() {
        let (spec, a, b) = alternating();
        let program = Program::new(spec);
        assert_eq!(program.cached_formula_count(), 1);
        let mut c1 = program.cursor();
        c1.fire(&Step::from_events([a])).expect("fires");
        // c1 reached the alternation's second state: one new entry
        assert_eq!(program.cached_formula_count(), 2);
        // a second cursor re-visiting both states adds nothing
        let mut c2 = program.cursor();
        c2.fire(&Step::from_events([a])).expect("fires");
        c2.fire(&Step::from_events([b])).expect("fires");
        assert_eq!(program.cached_formula_count(), 2);
    }

    #[test]
    fn cursors_are_independent() {
        let (spec, a, _) = alternating();
        let program = Program::new(spec);
        let options = SolverOptions::default();
        let mut c1 = program.cursor();
        let c2 = program.cursor();
        let initial = c2.acceptable_steps(&options);
        c1.fire(&Step::from_events([a])).expect("fires");
        assert_ne!(c1.acceptable_steps(&options), initial);
        assert_eq!(c2.acceptable_steps(&options), initial);
    }

    #[test]
    fn template_key_is_the_compile_time_state() {
        let (mut spec, a, _) = alternating();
        spec.fire(&Step::from_events([a])).expect("fires");
        let program = Program::compile(&spec);
        assert_eq!(program.template_key(), &spec.state_key());
        // fresh cursors start there, not at the reset state
        assert_eq!(program.cursor().state_key(), spec.state_key());
    }

    #[test]
    fn memo_is_shared_across_threads() {
        let (spec, a, b) = alternating();
        let program = Program::new(spec);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let program = &program;
                s.spawn(move || {
                    let mut c = program.cursor();
                    for _ in 0..3 {
                        c.fire(&Step::from_events([a])).expect("fires");
                        c.fire(&Step::from_events([b])).expect("fires");
                    }
                });
            }
        });
        // two automaton states, no matter how many workers visited them
        assert_eq!(program.cached_formula_count(), 2);
    }

    /// Two independent alternations over disjoint event pairs, so the
    /// cone of either pair excludes the other constraint.
    fn decoupled() -> (Specification, [EventId; 4]) {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let (x, y) = (u.event("x"), u.event("y"));
        let mut spec = Specification::new("decoupled", u);
        spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
        spec.add_constraint(Box::new(Alternation::new("x~y", x, y)));
        (spec, [a, b, x, y])
    }

    #[test]
    fn cone_of_influence_closes_over_shared_footprints() {
        let (spec, [a, b, x, _]) = decoupled();
        let program = Program::new(spec);
        assert_eq!(program.cone_of_influence(&[a]), vec![0]);
        assert_eq!(program.cone_of_influence(&[b]), vec![0]);
        assert_eq!(program.cone_of_influence(&[x]), vec![1]);
        assert_eq!(program.cone_of_influence(&[a, x]), vec![0, 1]);
        assert_eq!(program.cone_of_influence(&[]), Vec::<usize>::new());
    }

    #[test]
    fn cone_of_influence_chains_through_overlaps() {
        let mut u = Universe::new();
        let (a, b, c) = (u.event("a"), u.event("b"), u.event("c"));
        let mut spec = Specification::new("chain", u);
        spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
        spec.add_constraint(Box::new(Alternation::new("b~c", b, c)));
        let program = Program::new(spec);
        // a pulls in a~b, whose footprint contains b, which pulls b~c
        assert_eq!(program.cone_of_influence(&[a]), vec![0, 1]);
    }

    #[test]
    fn slice_shares_the_program_when_the_cone_is_total() {
        let (spec, [a, _, x, _]) = decoupled();
        let program = Program::new(spec);
        let total = program.slice(&[a, x]);
        assert!(Arc::ptr_eq(&program, &total));
    }

    #[test]
    fn slice_keeps_the_universe_and_drops_foreign_constraints() {
        let (spec, [a, b, x, _]) = decoupled();
        let program = Program::new(spec);
        let sliced = program.slice(&[a]);
        assert_eq!(sliced.specification().constraint_count(), 1);
        assert_eq!(sliced.specification().constraints()[0].name(), "a~b");
        assert_eq!(
            sliced.specification().universe(),
            program.specification().universe()
        );
        // steps transfer unchanged: the sliced program accepts the
        // same a/b behaviour and ignores x entirely
        let mut cursor = sliced.cursor();
        cursor.fire(&Step::from_events([a])).expect("fires");
        cursor.fire(&Step::from_events([b])).expect("fires");
        assert!(!sliced.constrained_events().contains(&x));
    }

    #[test]
    fn slice_snapshots_the_compile_time_constraint_state() {
        let (mut spec, a, _) = alternating();
        spec.fire(&Step::from_events([a])).expect("fires");
        let program = Program::compile(&spec);
        let sliced = program.slice(&[a]);
        // cone is total here, but via a fresh compile the state is kept
        assert_eq!(sliced.template_key(), program.template_key());
    }
}
