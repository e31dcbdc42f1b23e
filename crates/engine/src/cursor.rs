//! [`Cursor`]: the mutable per-worker half of a compiled
//! specification.
//!
//! A cursor owns exactly the state one execution needs — per
//! constraint, the id of its local state in the program's table — and
//! borrows everything immutable (the constraints, event interning,
//! footprints, the tables) from its [`Program`](crate::Program).
//! Cursors are therefore cheap to create and fully independent: the
//! parallel explorer hands one to every worker thread, and all of them
//! share every table entry through the program.
//!
//! Enumeration reads the entries of the current ids: a component of one
//! constraint borrows that entry's step list, a larger one borrows the
//! join of the constraints' model masks from the program's join memo,
//! keyed by the masks' classes (and joins them itself on the
//! program-wide first and second meetings of that class tuple). Firing a step looks each touched
//! constraint's next id up in its entry. `state_key` composes the
//! entries' local keys, and `restore` maps only the segments of the key
//! that differ from the current local states to ids. The explorer skips
//! keys altogether: it positions its workers' cursors from tuples of
//! ids and reads each successor's ids off the same lookups.
//!
//! Each cursor mirrors the entries it has met in one vector per
//! constraint, indexed by id, so moving to a known local state does no
//! hashing, locking or reference counting: the program's table is read
//! only the first time *this cursor* meets an id. It mirrors the join
//! memo's indices the same way, so the memo's lock is taken only on a
//! cursor's first meeting with a class tuple.

use crate::explorer::{explore_program, ExploreOptions, MixHasher, StateSpace};
use crate::program::{Component, Entry, Program, MASK_LIMIT};
use crate::solver::{enumerate_steps, models, SolverOptions};
use crate::step_set::{Lists, StepSet};
use moccml_kernel::{
    slices_equal, EventId, KernelError, Specification, StateKey, Step, StepFormula,
};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

/// A mutable execution position over a compiled [`Program`].
///
/// Created by [`Program::cursor`]; driven through
/// [`steps`](Cursor::steps) /
/// [`acceptable_steps`](Cursor::acceptable_steps),
/// [`fire`](Cursor::fire), [`state_key`](Cursor::state_key) /
/// [`restore`](Cursor::restore), [`expand`](Cursor::expand) and
/// [`explore`](Cursor::explore).
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
/// let snapshot = cursor.state_key();
/// let steps = cursor.acceptable_steps(&SolverOptions::default());
/// cursor.fire(&steps[0]).expect("acceptable");
/// cursor.restore(&snapshot).expect("own snapshot restores");
/// assert_eq!(cursor.acceptable_steps(&SolverOptions::default()), steps);
/// ```
#[derive(Debug, Clone)]
pub struct Cursor {
    program: Arc<Program>,
    /// Per constraint: the id of its current local state.
    slots: Vec<u32>,
    /// Per constraint: the entries this cursor has met, by id.
    mirror: Vec<Vec<Option<Arc<Entry>>>>,
    memo_hits: u64,
    memo_misses: u64,
    /// The join memo indices this cursor has met, updated by `&self`
    /// enumeration (so a cursor is `Send` but not `Sync`).
    joins: RefCell<JoinMirror>,
}

/// A cursor's mirror of the program's join memos: the memo index of
/// every class tuple it has met, keyed by the component's first
/// constraint followed by the tuple, and its lookup tallies.
#[derive(Debug, Clone, Default)]
struct JoinMirror {
    ids: HashMap<Box<[u32]>, u32, BuildHasherDefault<MixHasher>>,
    /// Scratch for the key being looked up.
    key: Vec<u32>,
    /// Lookups that found the list memoized.
    hits: u64,
    /// Lookups that joined the list: at most twice per class tuple,
    /// program-wide.
    misses: u64,
}

impl Cursor {
    pub(crate) fn new(program: Arc<Program>) -> Self {
        let slots = program.initial().to_vec();
        let mirror = slots
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                let mut mirror = vec![None; id as usize + 1];
                mirror[id as usize] = Some(program.entry(i, id));
                mirror
            })
            .collect();
        Cursor {
            program,
            slots,
            mirror,
            memo_hits: 0,
            memo_misses: 0,
            joins: RefCell::default(),
        }
    }

    /// Mirror hits: moves to a local state this cursor had already met,
    /// resolved without touching the program's tables. Plain per-cursor
    /// tallies — no atomics — read by the explorer's memo-hit-rate
    /// counters.
    #[must_use]
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits
    }

    /// Mirror misses: moves that read the program's table (and possibly
    /// lowered a formula program-wide first).
    #[must_use]
    pub fn memo_misses(&self) -> u64 {
        self.memo_misses
    }

    /// Join memo hits: enumerations of a component of several
    /// constraints that found its join memoized for the constraints'
    /// current classes.
    #[must_use]
    pub(crate) fn join_hits(&self) -> u64 {
        self.joins.borrow().hits
    }

    /// Join memo misses: enumerations that joined the masks, on the
    /// program-wide first meeting of a class tuple or to memoize it on
    /// a later one.
    #[must_use]
    pub(crate) fn join_misses(&self) -> u64 {
        self.joins.borrow().misses
    }

    /// The program this cursor executes.
    #[must_use]
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Read access to the executed specification: its universe and
    /// constraints. The cursor's own position is
    /// [`state_key`](Cursor::state_key).
    #[must_use]
    pub fn specification(&self) -> &Specification {
        self.program.specification()
    }

    /// The acceptable steps in the current state, factored by the
    /// program's components. A component of one constraint borrows the
    /// step list of that constraint's entry (enumerated there once,
    /// program-wide). A larger component joins its constraints' model
    /// masks: a partial step `v` and a model `m` combine into `v | m`
    /// when they agree on the events both constrain. The join reads
    /// nothing but the masks, so it is memoized program-wide by the
    /// tuple of the constraints' mask classes and borrowed from there:
    /// it runs at most twice per class tuple (once on the first
    /// meeting, once to memoize on the second), not once per state. Under
    /// [`SolverOptions::naive`] every component is enumerated afresh,
    /// naively.
    ///
    /// A component wider than 64 events has no masks: it is searched on
    /// its constraints' formulas instead, as the naive path does. So is
    /// a component one of whose constraints has more models than the
    /// program keeps masks for, or whose join outgrows that limit.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::TooManySteps`] if the set has more steps
    /// than a `usize` counts: no policy could index them.
    pub fn steps(&self, options: &SolverOptions) -> Result<StepSet<'_>, KernelError> {
        let mut lists = Lists::default();
        for comp in self.program.components() {
            lists.push(match comp.constraints[..] {
                [i] if options.prune => Cow::Borrowed(self.program.steps(i, self.entry(i))),
                _ => self.joint(comp, options),
            });
        }
        StepSet::new(&self.program, lists, options.include_empty)
    }

    /// The local steps of `comp`, a component of several constraints
    /// (or any component under [`SolverOptions::naive`]): the join, or
    /// else a search on the formulas.
    fn joint<'a>(&'a self, comp: &'a Component, options: &SolverOptions) -> Cow<'a, [Step]> {
        options
            .prune
            .then(|| self.joined(comp))
            .flatten()
            .unwrap_or_else(|| Cow::Owned(self.search(comp, options.prune)))
    }

    /// The local steps of `comp`, a masked component of several
    /// constraints, by the tuple of its constraints' classes: joined
    /// afresh on the program-wide first meeting of the tuple, then
    /// joined once more and memoized for every later meeting, so a
    /// tuple met once keeps nothing. `None` under the same conditions
    /// as [`join`](Cursor::join).
    fn joined<'a>(&'a self, comp: &'a Component) -> Option<Cow<'a, [Step]>> {
        if !comp.masked() {
            return None;
        }
        let mut mirror = self.joins.borrow_mut();
        let JoinMirror { ids, key, .. } = &mut *mirror;
        key.clear();
        key.push(u32::try_from(comp.constraints[0]).expect("constraint indices fit u32"));
        for &i in &comp.join {
            key.push(self.program.models(i, self.entry(i))?.class);
        }
        let id = match ids.get(key.as_slice()) {
            Some(&id) => id,
            None => {
                let (id, fresh) = comp.joins.index(&key[1..]);
                ids.insert(key.as_slice().into(), id);
                if fresh {
                    mirror.misses += 1;
                    return self.join(comp).map(Cow::Owned);
                }
                id
            }
        };
        let (steps, joined) = comp.joins.list(id, || self.join(comp));
        if joined {
            mirror.misses += 1;
        } else {
            mirror.hits += 1;
        }
        steps.map(Cow::Borrowed)
    }

    /// The local steps of a masked component of several constraints:
    /// the join of their model masks in the component's join order,
    /// sorted (numeric mask order is step order). `None` when one of
    /// its constraints has no masks, or the join holds more than
    /// [`MASK_LIMIT`] partial steps.
    fn join(&self, comp: &Component) -> Option<Vec<Step>> {
        let (mut joined, mut next) = (vec![0u64], Vec::new());
        let mut assigned = 0u64;
        for &i in &comp.join {
            let footprint = self.program.home(i).1;
            let shared = assigned & footprint;
            let models = &self.program.models(i, self.entry(i))?.masks;
            for &v in &joined {
                let agreeing = models.iter().filter(|&&m| (v ^ m) & shared == 0);
                next.extend(agreeing.map(|&m| v | m));
                if next.len() > MASK_LIMIT {
                    return None;
                }
            }
            std::mem::swap(&mut joined, &mut next);
            next.clear();
            assigned |= footprint;
        }
        joined.sort_unstable();
        Some(joined.into_iter().map(|m| comp.step(m)).collect())
    }

    /// The local steps of a component, searched on its constraints'
    /// current formulas (pruned or naive).
    fn search(&self, comp: &Component, prune: bool) -> Vec<Step> {
        let formulas: Vec<&StepFormula> = comp
            .constraints
            .iter()
            .map(|&i| &self.entry(i).formula)
            .collect();
        models(&formulas, &comp.events, prune)
    }

    /// Enumerates every acceptable step in the current state: the
    /// [`steps`](Cursor::steps) set, materialized. Sorted by the `Ord`
    /// on [`Step`].
    ///
    /// # Panics
    ///
    /// Panics if the set has more steps than a `usize` counts, where
    /// [`steps`](Cursor::steps) returns an error: no list could hold
    /// them.
    #[must_use]
    pub fn acceptable_steps(&self, options: &SolverOptions) -> Vec<Step> {
        self.steps(options)
            .unwrap_or_else(|e| panic!("{e}"))
            .into_vec()
    }

    /// Whether `step` satisfies every constraint in the current state —
    /// evaluated on the cached formulas, without lowering.
    #[must_use]
    pub fn accepts(&self, step: &Step) -> bool {
        (0..self.slots.len()).all(|i| self.entry(i).formula.eval(step))
    }

    /// Names of the constraints whose current formula rejects `step`,
    /// in constraint order — empty iff [`accepts`](Cursor::accepts).
    /// The conformance checker's diagnostic: *which* constraints a
    /// recorded schedule violates at a step, not just that one does.
    #[must_use]
    pub fn violated_constraints(&self, step: &Step) -> Vec<String> {
        self.specification()
            .constraints()
            .iter()
            .enumerate()
            .filter(|&(i, _)| !self.entry(i).formula.eval(step))
            .map(|(_, c)| c.name().to_owned())
            .collect()
    }

    /// Enumerates every acceptable step over an explicit `events` list
    /// instead of the program's own constrained-event list. Events in
    /// `events` that no constraint of *this* program mentions are free
    /// (they may occur or not in any step); events outside `events`
    /// never occur. The synchronized-product equivalence checker uses
    /// this to compare two programs over the *union* of their
    /// constrained events. Sorted by the `Ord` on [`Step`].
    #[must_use]
    pub fn acceptable_steps_over(&self, events: &[EventId], options: &SolverOptions) -> Vec<Step> {
        let formulas: Vec<&StepFormula> = (0..self.slots.len())
            .map(|i| &self.entry(i).formula)
            .collect();
        enumerate_steps(&formulas, events, options)
    }

    /// Fires `step`: checks it once against the current formulas, then
    /// moves only the constraints whose event footprints meet it (the
    /// stuttering guarantee of the
    /// [`Constraint`](moccml_kernel::Constraint) protocol: a step that
    /// touches none of a constraint's events leaves its state
    /// unchanged).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::StepRejected`] naming the first constraint
    /// whose formula rejects `step`, as [`Specification::fire`] does;
    /// nothing has advanced then, so the cursor is unchanged.
    pub fn fire(&mut self, step: &Step) -> Result<(), KernelError> {
        if let Some(constraint) = self.violated_constraints(step).into_iter().next() {
            let step = step.to_string();
            return Err(KernelError::StepRejected { constraint, step });
        }
        self.advance(step);
        Ok(())
    }

    /// Moves the constraints whose event footprints meet `step`, which
    /// the current formulas accept, to their next states: a table
    /// lookup per touched constraint.
    pub(crate) fn advance(&mut self, step: &Step) {
        for i in 0..self.slots.len() {
            if let Some(id) = self.next(i, step) {
                self.refresh(i, id);
            }
        }
    }

    /// The id constraint `i` moves to under `step`, or `None` when the
    /// step does not meet its footprint.
    fn next(&self, i: usize, step: &Step) -> Option<u32> {
        let model = self.program.model(i, step)?;
        Some(self.program.next(i, self.entry(i), step, model))
    }

    /// Snapshot of the global constraint state: the current local
    /// states, laid out by [`Specification::compose_key`].
    #[must_use]
    pub fn state_key(&self) -> StateKey {
        Specification::compose_key((0..self.slots.len()).map(|i| &self.entry(i).key))
    }

    /// Restores a state produced by [`state_key`](Cursor::state_key):
    /// only the constraints whose segment of `key` differs from their
    /// current local state move. Previously met local states hit the
    /// cursor's mirror (or, first time, the program's table), so winding
    /// exploration back and forth does not re-lower anything.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::InvalidStateKey`] if the key does not
    /// split into one local state per constraint, each as wide as the
    /// constraint's initial state (checked before any slot moves).
    pub fn restore(&mut self, key: &StateKey) -> Result<(), KernelError> {
        let segments = self.program.specification().key_segments(key)?;
        for (i, segment) in segments.into_iter().enumerate() {
            if !slices_equal(self.entry(i).key.values(), segment) {
                let id = self.program.intern(i, segment);
                self.refresh(i, id);
            }
        }
        Ok(())
    }

    /// Moves the slots to the local-state ids `ids`, one per
    /// constraint: no key is split, hashed or looked up.
    pub(crate) fn position(&mut self, ids: &[u32]) {
        for (i, &id) in ids.iter().enumerate() {
            self.refresh(i, id);
        }
    }

    /// Returns every constraint to the state the program was compiled
    /// in — where fresh cursors start.
    pub fn reset(&mut self) {
        self.slots.copy_from_slice(self.program.initial());
    }

    /// Explores the reachable scheduling state-space from the cursor's
    /// *current* state. The cursor itself is untouched — exploration
    /// runs on its own worker cursors. See the
    /// [`explorer`](crate::StateSpace) docs for the graph's semantics
    /// and the determinism guarantee.
    #[must_use]
    pub fn explore(&self, options: &ExploreOptions) -> StateSpace {
        explore_program(&self.program, &self.slots, options, &mut ())
    }

    /// Expands one state — restores `key`, enumerates its acceptable
    /// steps under `solver`, and composes each successor key from the
    /// local states, moving only the constraints whose footprint the
    /// step meets, by table lookup (the steps came from the current
    /// formulas, so they are not checked again), in the layout of
    /// [`Specification::compose_key`]. Returns the `(step, successor)`
    /// pairs in canonical ([`Step`] `Ord`) order, which is what the
    /// explorer's determinism contract rests on; an empty list means
    /// `key` is a deadlock. The cursor is left at `key`. This is the
    /// key-based reference for the explorer's workers, which make the
    /// same lookups on tuples of local-state ids and compose no key.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::InvalidStateKey`] if `key` does not match
    /// the constraint population, as [`restore`](Cursor::restore) does,
    /// and [`KernelError::TooManySteps`] if the state admits more steps
    /// than a `usize` counts, as [`steps`](Cursor::steps) does.
    pub fn expand(
        &mut self,
        key: &StateKey,
        solver: &SolverOptions,
    ) -> Result<Vec<(Step, StateKey)>, KernelError> {
        self.restore(key)?;
        let steps = self.steps(solver)?.into_vec();
        let mut out = Vec::with_capacity(steps.len());
        let mut values = Vec::new();
        for step in steps {
            values.clear();
            for i in 0..self.slots.len() {
                let local = match self.next(i, &step) {
                    Some(id) => self.mirror(i, id),
                    None => self.entry(i),
                };
                let local = local.key.values();
                values.push(i64::try_from(local.len()).expect("state key length fits i64"));
                values.extend_from_slice(local);
            }
            out.push((step, StateKey::from_values(values.iter().copied())));
        }
        Ok(out)
    }

    /// Calls `emit` with every acceptable step of the current state
    /// under `solver`, in [`Step`] order, and its successor's local-state
    /// ids, written into `successor`: the current ids with only the
    /// constraints whose footprint the step meets moved, by table
    /// lookup. The step set is walked, never listed.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::TooManySteps`] as [`steps`](Cursor::steps)
    /// does; nothing is emitted then.
    pub(crate) fn for_each_successor(
        &self,
        solver: &SolverOptions,
        successor: &mut Vec<u32>,
        mut emit: impl FnMut(&Step, &[u32]),
    ) -> Result<(), KernelError> {
        self.steps(solver)?.for_each(|step| {
            successor.clear();
            successor.extend_from_slice(&self.slots);
            for (i, id) in successor.iter_mut().enumerate() {
                if let Some(next) = self.next(i, step) {
                    *id = next;
                }
            }
            emit(step, successor);
        });
        Ok(())
    }

    /// The entry of constraint `i`'s current local state.
    fn entry(&self, i: usize) -> &Entry {
        self.mirror[i][self.slots[i] as usize]
            .as_deref()
            .expect("a slot's entry is mirrored")
    }

    /// The entry of constraint `i`'s local state `id`, mirrored from the
    /// program's table on this cursor's first meeting, and tallied as a
    /// mirror hit or miss.
    fn mirror(&mut self, i: usize, id: u32) -> &Entry {
        let mirror = &mut self.mirror[i];
        let at = id as usize;
        if mirror.len() <= at {
            mirror.resize(at + 1, None);
        }
        if mirror[at].is_some() {
            self.memo_hits += 1;
        } else {
            self.memo_misses += 1;
            mirror[at] = Some(self.program.entry(i, id));
        }
        mirror[at].as_deref().expect("just mirrored")
    }

    /// Moves slot `index` to local state `id`.
    fn refresh(&mut self, index: usize, id: u32) {
        if id != self.slots[index] {
            self.mirror(index, id);
            self.slots[index] = id;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moccml_ccsl::{Alternation, Precedence, SubClock};
    use moccml_kernel::{EventId, Universe};

    fn alternating() -> (Specification, EventId, EventId) {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("alt", u);
        spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
        (spec, a, b)
    }

    #[test]
    fn matches_recompiled_solver_along_a_run() {
        let mut u = Universe::new();
        let (a, b, c) = (u.event("a"), u.event("b"), u.event("c"));
        let mut spec = Specification::new("mix", u);
        spec.add_constraint(Box::new(SubClock::new("a⊆b", a, b)));
        spec.add_constraint(Box::new(Precedence::strict("b<c", b, c).with_bound(2)));
        let mut cursor = Program::compile(&spec).cursor();
        let options = SolverOptions::default();
        for _ in 0..8 {
            let fast = cursor.acceptable_steps(&options);
            // the recompile-per-query baseline: lower everything afresh
            let slow = Program::compile(&spec).cursor().acceptable_steps(&options);
            assert_eq!(fast, slow);
            let Some(step) = fast.first().cloned() else {
                break;
            };
            cursor.fire(&step).expect("acceptable");
            spec.fire(&step).expect("acceptable");
        }
    }

    #[test]
    fn fire_refreshes_only_touched_slots() {
        let (spec, a, _) = alternating();
        let program = Program::new(spec);
        let mut cursor = program.cursor();
        assert_eq!(program.cached_formula_count(), 1);
        cursor.fire(&Step::from_events([a])).expect("fires");
        // the alternation moved to its second state: one new memo entry
        assert_eq!(program.cached_formula_count(), 2);
    }

    #[test]
    fn restore_hits_the_memo() {
        let (spec, a, b) = alternating();
        let program = Program::new(spec);
        let mut cursor = program.cursor();
        let start = cursor.state_key();
        cursor.fire(&Step::from_events([a])).expect("fires");
        cursor.fire(&Step::from_events([b])).expect("fires");
        let after_cycle = program.cached_formula_count();
        // wind back and forth: the memo must not grow
        for _ in 0..4 {
            cursor.restore(&start).expect("restores");
            cursor.fire(&Step::from_events([a])).expect("fires");
        }
        assert_eq!(program.cached_formula_count(), after_cycle);
    }

    #[test]
    fn memo_counters_track_l1_hits_and_misses() {
        let (spec, a, b) = alternating();
        let program = Program::new(spec);
        let mut cursor = program.cursor();
        assert_eq!((cursor.memo_hits(), cursor.memo_misses()), (0, 0));
        cursor.fire(&Step::from_events([a])).expect("fires");
        // first visit of the post-`a` state: the mirror misses
        assert_eq!(cursor.memo_misses(), 1);
        cursor.fire(&Step::from_events([b])).expect("fires");
        // back to the initial state, which seeded the mirror
        assert_eq!(cursor.memo_hits(), 1);
    }

    #[test]
    fn join_counters_track_memo_hits_and_misses() {
        // a⊆b and b<c share b: one component of two constraints
        let mut u = Universe::new();
        let (a, b, c) = (u.event("a"), u.event("b"), u.event("c"));
        let mut spec = Specification::new("shared", u);
        spec.add_constraint(Box::new(SubClock::new("a⊆b", a, b)));
        spec.add_constraint(Box::new(Precedence::strict("b<c", b, c).with_bound(2)));
        let program = Program::new(spec);
        let options = SolverOptions::default();
        // the first meeting of the class tuple joins and keeps nothing
        let first = program.cursor();
        let steps = first.acceptable_steps(&options);
        assert_eq!((first.join_hits(), first.join_misses()), (0, 1));
        assert_eq!(program.join_class_count(), 1);
        // the second, on another cursor, joins again and memoizes; from
        // then on every cursor borrows the memoized list
        let second = program.cursor();
        assert_eq!(second.acceptable_steps(&options), steps);
        assert_eq!((second.join_hits(), second.join_misses()), (0, 1));
        assert_eq!(first.acceptable_steps(&options), steps);
        assert_eq!((first.join_hits(), first.join_misses()), (1, 1));
        assert_eq!(program.join_class_count(), 1);
        // the naive path never reads the memo
        let _ = first.acceptable_steps(&SolverOptions::naive());
        assert_eq!((first.join_hits(), first.join_misses()), (1, 1));
    }

    #[test]
    fn reset_returns_to_initial_answers() {
        let (spec, a, _) = alternating();
        let mut cursor = Program::new(spec).cursor();
        let options = SolverOptions::default();
        let initial = cursor.acceptable_steps(&options);
        cursor.fire(&Step::from_events([a])).expect("fires");
        assert_ne!(cursor.acceptable_steps(&options), initial);
        cursor.reset();
        assert_eq!(cursor.acceptable_steps(&options), initial);
    }

    #[test]
    fn accepts_agrees_with_enumeration() {
        let (spec, a, b) = alternating();
        let cursor = Program::new(spec).cursor();
        assert!(cursor.accepts(&Step::from_events([a])));
        assert!(!cursor.accepts(&Step::from_events([b])));
        assert!(cursor.accepts(&Step::new()), "stuttering is acceptable");
    }

    #[test]
    fn expand_composes_successors_from_next_states() {
        let (spec, a, b) = alternating();
        let program = Program::new(spec);
        let mut cursor = program.cursor();
        let start = cursor.state_key();
        let succs = cursor
            .expand(&start, &SolverOptions::default())
            .expect("expands");
        let mut probe = program.cursor();
        probe.fire(&Step::from_events([a])).expect("fires");
        assert_eq!(succs, vec![(Step::from_events([a]), probe.state_key())]);
        // the cursor stays at the expanded state
        assert_eq!(cursor.state_key(), start);
        assert!(!cursor.accepts(&Step::from_events([b])));
    }

    #[test]
    fn restore_rejects_a_segment_of_the_wrong_width() {
        let (spec, _, _) = alternating();
        let mut cursor = Program::new(spec).cursor();
        let before = cursor.state_key();
        let wide = StateKey::from_values([2, 0, 0]);
        assert!(matches!(
            cursor.restore(&wide),
            Err(KernelError::InvalidStateKey { .. })
        ));
        assert!(cursor.expand(&wide, &SolverOptions::default()).is_err());
        assert_eq!(cursor.state_key(), before);
    }

    #[test]
    fn cloned_cursor_diverges_without_affecting_the_original() {
        let (spec, a, _) = alternating();
        let mut original = Program::new(spec).cursor();
        let before = original.state_key();
        let mut clone = original.clone();
        clone.fire(&Step::from_events([a])).expect("fires");
        assert_eq!(original.state_key(), before);
        assert_ne!(clone.state_key(), before);
        // both still answer correctly
        original.fire(&Step::from_events([a])).expect("fires");
        assert_eq!(original.state_key(), clone.state_key());
    }
}
