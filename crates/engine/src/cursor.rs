//! [`Cursor`]: the mutable per-worker half of a compiled
//! specification.
//!
//! A cursor owns exactly the state one execution needs — per
//! constraint, a slot holding its local state and the lowered formula
//! selected for that state — and borrows everything immutable (the
//! constraints, event interning, footprints, the formula memo) from its
//! [`Program`](crate::Program). Cursors are therefore cheap to create
//! and fully independent: the parallel explorer hands one to every
//! worker thread, and all of them share every formula-lowering cache
//! hit through the program's sharded memo.
//!
//! A step is checked once, on the slot formulas; firing then moves only
//! the constraints whose footprint the step meets to their
//! [`next`](moccml_kernel::Constraint::next) state. The slot keys are
//! the cursor's one record of local state: `state_key` composes them,
//! and `restore` touches only the constraints whose segment of the key
//! differs from their slot key.
//!
//! Each cursor keeps a small L1 cache in front of the shared memo
//! (one map per constraint), so a `(constraint, state)` pair locks a
//! memo shard only the first time *this cursor* meets it — re-visits,
//! the overwhelmingly common case in breadth-first exploration, are
//! lock-free.

use crate::explorer::{explore_program, ExploreOptions, StateSpace};
use crate::program::{Lowered, Program};
use crate::solver::{enumerate_steps, models, SolverOptions};
use crate::step_set::StepSet;
use moccml_kernel::{EventId, KernelError, Specification, StateKey, Step, StepFormula};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

/// One constraint's run state inside a cursor: its local state key, the
/// memo entry (lowered formula) selected for that state, and the
/// cursor-local L1 cache over the program's shared memo.
#[derive(Debug, Clone)]
struct Slot {
    key: StateKey,
    lowered: Arc<Lowered>,
    l1: HashMap<StateKey, Arc<Lowered>>,
}

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
    slots: Vec<Slot>,
    memo_hits: u64,
    memo_misses: u64,
}

impl Cursor {
    pub(crate) fn new(program: Arc<Program>) -> Self {
        let slots = program
            .initial_slots()
            .iter()
            .map(|(key, lowered)| Slot {
                key: key.clone(),
                lowered: Arc::clone(lowered),
                l1: HashMap::from([(key.clone(), Arc::clone(lowered))]),
            })
            .collect();
        Cursor {
            program,
            slots,
            memo_hits: 0,
            memo_misses: 0,
        }
    }

    /// L1 cache hits across all slot refreshes: `(constraint, state)`
    /// pairs this cursor had already met, resolved without touching
    /// the program's shared memo. Plain per-cursor tallies — no
    /// atomics — read by the explorer's memo-hit-rate counters.
    #[must_use]
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits
    }

    /// L1 cache misses: refreshes that went to the shared memo (and
    /// possibly lowered a formula program-wide first).
    #[must_use]
    pub fn memo_misses(&self) -> u64 {
        self.memo_misses
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
    /// program's components: a component of one constraint reads its
    /// local list from the memo entry of that constraint's state
    /// (enumerated there once, program-wide), a larger one is
    /// enumerated on the cached formulas. No lowering on this path.
    /// Under [`SolverOptions::naive`] every component is enumerated
    /// afresh, naively.
    #[must_use]
    pub fn steps(&self, options: &SolverOptions) -> StepSet<'_> {
        let lists = self
            .program
            .components()
            .iter()
            .map(|comp| match comp.constraints[..] {
                [i] if options.prune => Cow::Borrowed(self.slots[i].lowered.steps(&comp.events)),
                _ => {
                    let formulas: Vec<&StepFormula> = comp
                        .constraints
                        .iter()
                        .map(|&i| &self.slots[i].lowered.formula)
                        .collect();
                    Cow::Owned(models(&formulas, &comp.events, options.prune))
                }
            })
            .collect();
        StepSet::new(&self.program, lists, options.include_empty)
    }

    /// Enumerates every acceptable step in the current state: the
    /// [`steps`](Cursor::steps) set, materialized. Sorted by the `Ord`
    /// on [`Step`].
    #[must_use]
    pub fn acceptable_steps(&self, options: &SolverOptions) -> Vec<Step> {
        self.steps(options).into_vec()
    }

    /// Whether `step` satisfies every constraint in the current state —
    /// evaluated on the cached formulas, without lowering.
    #[must_use]
    pub fn accepts(&self, step: &Step) -> bool {
        self.slots.iter().all(|s| s.lowered.formula.eval(step))
    }

    /// Names of the constraints whose current formula rejects `step`,
    /// in constraint order — empty iff [`accepts`](Cursor::accepts).
    /// The conformance checker's diagnostic: *which* constraints a
    /// recorded schedule violates at a step, not just that one does.
    #[must_use]
    pub fn violated_constraints(&self, step: &Step) -> Vec<String> {
        self.slots
            .iter()
            .zip(self.specification().constraints())
            .filter(|(slot, _)| !slot.lowered.formula.eval(step))
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
        let formulas: Vec<&StepFormula> = self.slots.iter().map(|s| &s.lowered.formula).collect();
        enumerate_steps(&formulas, events, options)
    }

    /// Fires `step`: checks it once against the slot formulas, then
    /// advances and refreshes only the constraints whose event
    /// footprints meet it (the stuttering guarantee of the
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
    /// the slot formulas accept, to their next states and refreshes
    /// their formulas.
    pub(crate) fn advance(&mut self, step: &Step) {
        let program = Arc::clone(&self.program);
        let constraints = program.specification().constraints();
        for (i, fp) in program.footprints().iter().enumerate() {
            if !fp.is_disjoint_from(step) {
                let next = constraints[i].next(&self.slots[i].key, step);
                self.refresh(i, next);
            }
        }
    }

    /// Snapshot of the global constraint state: the slot keys, laid out
    /// by [`Specification::compose_key`].
    #[must_use]
    pub fn state_key(&self) -> StateKey {
        Specification::compose_key(self.slots.iter().map(|s| &s.key))
    }

    /// Restores a state produced by [`state_key`](Cursor::state_key):
    /// only the constraints whose segment of `key` differs from their
    /// slot key are refreshed. Previously visited states hit the
    /// cursor's L1 cache (or, first time, the program memo), so winding
    /// exploration back and forth does not re-lower anything.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::InvalidStateKey`] if the key does not
    /// split into one local state per constraint, each as wide as the
    /// constraint's initial state (checked before any slot moves).
    pub fn restore(&mut self, key: &StateKey) -> Result<(), KernelError> {
        self.program.specification().key_segments(key)?;
        self.position(key);
        Ok(())
    }

    /// Moves the slots to `key`, a key laid out like every key this
    /// program's cursors compose (its layout is not checked again).
    pub(crate) fn position(&mut self, key: &StateKey) {
        let mut rest = key.values();
        for i in 0..self.slots.len() {
            let width = self.slots[i].key.len();
            let segment = rest.get(1..=width).unwrap_or_default();
            rest = rest.get(1 + width..).unwrap_or_default();
            if self.slots[i].key.values() != segment {
                self.refresh(i, StateKey::from_values(segment.iter().copied()));
            }
        }
    }

    /// Returns every constraint to the state the program was compiled
    /// in — where fresh cursors start.
    pub fn reset(&mut self) {
        for (slot, (key, lowered)) in self.slots.iter_mut().zip(self.program.initial_slots()) {
            slot.key.clone_from(key);
            slot.lowered = Arc::clone(lowered);
        }
    }

    /// Explores the reachable scheduling state-space from the cursor's
    /// *current* state. The cursor itself is untouched — exploration
    /// runs on its own worker cursors. See the
    /// [`explorer`](crate::StateSpace) docs for the graph's semantics
    /// and the determinism guarantee.
    #[must_use]
    pub fn explore(&self, options: &ExploreOptions) -> StateSpace {
        explore_program(&self.program, self.state_key(), options, &mut ())
    }

    /// Expands one state — the call the explorer's workers make per
    /// state: restores `key`, enumerates its acceptable steps under
    /// `solver`, and composes each successor key from the slot states,
    /// moving only the constraints whose footprint the step meets (the
    /// solver has already checked the steps against the slot formulas,
    /// so they are not checked again). Returns the `(step, successor)`
    /// pairs in canonical ([`Step`] `Ord`) order, which is what the
    /// explorer's determinism contract rests on; an empty list means
    /// `key` is a deadlock. The cursor is left at `key`.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::InvalidStateKey`] if `key` does not match
    /// the constraint population, as [`restore`](Cursor::restore) does.
    pub fn expand(
        &mut self,
        key: &StateKey,
        solver: &SolverOptions,
    ) -> Result<Vec<(Step, StateKey)>, KernelError> {
        self.restore(key)?;
        Ok(self.successors(solver))
    }

    /// The `(step, successor)` pairs of the current state under
    /// `solver`, as [`expand`](Cursor::expand) returns them.
    pub(crate) fn successors(&self, solver: &SolverOptions) -> Vec<(Step, StateKey)> {
        let constraints = self.specification().constraints();
        let footprints = self.program.footprints();
        self.acceptable_steps(solver)
            .into_iter()
            .map(|step| {
                let locals = self.slots.iter().enumerate().map(|(i, slot)| {
                    if footprints[i].is_disjoint_from(&step) {
                        Cow::Borrowed(&slot.key)
                    } else {
                        Cow::Owned(constraints[i].next(&slot.key, &step))
                    }
                });
                let successor = Specification::compose_key(locals);
                (step, successor)
            })
            .collect()
    }

    /// Moves slot `index` to local state `key`, lowering its formula
    /// only on the program-wide first visit of that state, and tallies
    /// whether the cursor's L1 cache already held it.
    fn refresh(&mut self, index: usize, key: StateKey) {
        let slot = &mut self.slots[index];
        if key == slot.key {
            return;
        }
        slot.lowered = if let Some(f) = slot.l1.get(&key) {
            self.memo_hits += 1;
            Arc::clone(f)
        } else {
            self.memo_misses += 1;
            let c = &self.program.specification().constraints()[index];
            let f = self
                .program
                .memo()
                .get_or_insert(index, &key, || c.formula(&key).simplify());
            slot.l1.insert(key.clone(), Arc::clone(&f));
            f
        };
        slot.key = key;
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
        // first visit of the post-`a` state: the L1 misses
        assert_eq!(cursor.memo_misses(), 1);
        cursor.fire(&Step::from_events([b])).expect("fires");
        // back to the initial state, which seeded the L1
        assert_eq!(cursor.memo_hits(), 1);
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
